package load

// Op kinds of a trace event.
const (
	OpGenerate = "generate" // POST /v1/generate (stateless)
	OpAppend   = "append"   // POST /v1/sessions/{id}/queries
	OpInteract = "interact" // POST /v1/sessions/{id}/interact
	OpExport   = "export"   // GET  /v1/sessions/{id}/export?format=json
)

// Event is one scheduled request of a trace. A trace is the fully resolved
// request sequence — op, target session, payload queries, per-request
// search seed — which Generate derives from a spec, its seed and its
// window, so the same three reproduce the same requests.
type Event struct {
	// Seq is the event's position in the trace (0-based, strictly
	// increasing). It doubles as the tie-break for events scheduled at the
	// same microsecond.
	Seq int `json:"seq"`
	// AtUS is the scheduled dispatch time in microseconds from run start.
	AtUS int64 `json:"at_us"`
	// Class names the client class the event belongs to.
	Class string `json:"class"`
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// Session is the target session id (empty for OpGenerate).
	Session string `json:"session,omitempty"`
	// Stream marks an SSE-streamed generate.
	Stream bool `json:"stream,omitempty"`
	// Queries is the payload for generate/append ops.
	Queries []string `json:"queries,omitempty"`
	// Iterations is the per-request search iteration budget.
	Iterations int `json:"iterations,omitempty"`
	// Seed is the per-request search seed (deterministic per trace).
	Seed int64 `json:"seed,omitempty"`
}
