package mctsui

import (
	"bytes"
	"fmt"

	"repro/internal/ast"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/htmlpage"
	"repro/internal/sqlparser"
)

// MarshalJSON serializes the interface (difftree + widget tree + input log)
// so it can be stored and reloaded without re-running the search. The
// interface is encoded once; each call returns a fresh copy the caller owns.
func (f *Interface) MarshalJSON() ([]byte, error) {
	data, err := f.encoded()
	return bytes.Clone(data), err
}

// JSONReader reads the interface's MarshalJSON encoding without copying
// it: the reader shares the one encoding every call returns, and its Len
// is the encoded size. Each call returns a new reader.
func (f *Interface) JSONReader() (*bytes.Reader, error) {
	data, err := f.encoded()
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(data), nil
}

// encoded returns the interface's codec JSON, encoding it on first use.
// The slice is shared and must not be modified.
func (f *Interface) encoded() ([]byte, error) {
	f.encOnce.Do(func() {
		f.enc, f.encErr = codec.Marshal(f.res.DiffTree, f.res.UI, f.QueryLog())
	})
	return f.enc, f.encErr
}

// LoadInterface reconstructs an interface from MarshalJSON output. The cost
// breakdown is re-evaluated against the given screen (cost is derived data).
func LoadInterface(data []byte, screen Screen) (*Interface, error) {
	diff, ui, queries, err := codec.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if screen == (Screen{}) {
		screen = WideScreen
	}
	log := make([]*ast.Node, 0, len(queries))
	for i, q := range queries {
		n, err := sqlparser.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("mctsui: stored query %d: %w", i+1, err)
		}
		log = append(log, n)
	}
	model := cost.Default(screen)
	bd := model.NewEvaluator(diff, log).Evaluate(ui)
	return &Interface{res: &core.Result{
		DiffTree: diff,
		UI:       ui,
		Cost:     bd,
		Log:      log,
	}}, nil
}

// QueryLog returns the interface's input log rendered back to SQL — the
// canonical query sequence an identical offline Generate (or a warm-started
// incremental regeneration) would run over. Indices match the original log
// order.
func (f *Interface) QueryLog() []string {
	queries := make([]string, len(f.res.Log))
	for i, q := range f.res.Log {
		queries[i] = sqlparser.Render(q)
	}
	return queries
}

// Page renders the interface as a self-contained interactive HTML page: the
// widgets are live form controls and an embedded JavaScript port of the
// query generator shows the current SQL on every interaction.
func (f *Interface) Page(title string) (string, error) {
	return htmlpage.Render(f.res.DiffTree, f.res.UI, f.QueryLog(), title)
}
