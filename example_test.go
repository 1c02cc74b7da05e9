package mctsui_test

import (
	"context"
	"fmt"

	mctsui "repro"
	"repro/internal/engine"
)

// Example_generate shows the end-to-end flow on the paper's Figure 1 log.
// (Outputs depend on the search seed and cost constants, so the examples
// are compile-checked rather than output-verified.)
func Example_generate() {
	gen := mctsui.New(mctsui.WithIterations(20), mctsui.WithSeed(1))
	iface, err := gen.Generate(context.Background(), []string{
		"SELECT Sales FROM sales WHERE cty = USA",
		"SELECT Costs FROM sales WHERE cty = EUR",
		"SELECT Costs FROM sales",
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(iface.ASCII())
	fmt.Printf("cost = %.2f\n", iface.Cost())
}

// Example_session drives a generated interface widget by widget.
func Example_session() {
	gen := mctsui.New(mctsui.WithIterations(10), mctsui.WithSeed(1))
	iface, _ := gen.Generate(context.Background(), []string{
		"SELECT Sales FROM sales WHERE cty = USA",
		"SELECT Costs FROM sales",
	})
	sess := iface.NewSession()
	_ = sess.LoadQuery("SELECT Sales FROM sales WHERE cty = USA")
	_ = sess.Set(0, 1)
	sql, _ := sess.SQL()
	fmt.Println(sql)
}

// Example_execute runs the current query against an in-memory database and
// prints the recommended visualization.
func Example_execute() {
	gen := mctsui.New(mctsui.WithIterations(10), mctsui.WithSeed(1))
	iface, _ := gen.Generate(context.Background(), []string{
		"select count(*) from stars where u between 0 and 30",
		"select count(*) from stars where u between 5 and 25",
	})
	sess := iface.NewSession()
	db := engine.SDSSDB(100, 1)
	_, spec, err := sess.Execute(db)
	if err != nil {
		panic(err)
	}
	fmt.Println(spec.Type)
}
