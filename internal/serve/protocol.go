package serve

// Wire protocol: one TCP connection per decode session, carrying
// newline-delimited JSON in both directions (encoding/json values,
// one per line). The client sends Requests, the server answers with
// Replies. docs/SERVING.md is the normative description.
//
// Client → server:
//
//	{"op":"start","id":"utt-3","model":"tiny-sparse","deadline_ms":30000,"partial_every":8}
//	{"op":"start","id":"utt-4","control":{"target_occupancy":32,"min_beam":8,"max_beam":15}}
//	{"op":"frame","f64":"AAAAAAAA0D8..."} // spliced features, 8·InDim bytes of float64 bits
//	{"op":"frame","data":[0.25,...]}       // the same as JSON numbers (debug clients)
//	{"op":"finish"}
//
// Server → client:
//
//	{"event":"ready","session":"utt-3","model":"tiny-sparse"}
//	{"event":"reject","reason":"...","retry_after_ms":250}
//	{"event":"reject","reason":"unknown model ...","available":["a","b"],"permanent":true}
//	{"event":"reject","reason":"control: ...","permanent":true}
//	{"event":"partial","words":[...]}  // every partial_every frames
//	{"event":"result","ok":true,"words":[...],"cost":...,"frames":42}
//	{"event":"error","reason":"..."}

import "repro/internal/control"

// Request ops.
const (
	OpStart  = "start"
	OpFrame  = "frame"
	OpFinish = "finish"
)

// Reply events.
const (
	EventReady   = "ready"
	EventReject  = "reject"
	EventPartial = "partial"
	EventResult  = "result"
	EventError   = "error"
)

// Request is one client → server message.
type Request struct {
	Op string `json:"op"`

	// start fields
	ID string `json:"id,omitempty"` // client-chosen session label, echoed in ready
	// Model names the registered variant to decode with ("" = the
	// server's default variant). An unknown name is answered with a
	// structured reject listing the available variants.
	Model string `json:"model,omitempty"`
	// DeadlineMS bounds the whole session in wall-clock milliseconds
	// from admission (0 = the server's default deadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// PartialEvery asks for a partial hypothesis event every N frames
	// (0 = no partials).
	PartialEvery int `json:"partial_every,omitempty"`
	// Control, when present, decodes this session under the adaptive
	// beam controller with the given configuration (internal/control;
	// docs/ADAPTIVE.md specifies the law). An invalid configuration is
	// answered with a permanent structured reject before admission.
	Control *control.Config `json:"control,omitempty"`

	// frame fields: one spliced feature vector, len = network InDim.
	// F64 carries it as little-endian IEEE-754 bits, 8 bytes per
	// feature (base64 on the wire, as encoding/json writes []byte); it
	// is what ClientSession sends. Data carries it as JSON numbers, for
	// debug and non-Go clients. A frame carries one or the other.
	F64  []byte    `json:"f64,omitempty"`
	Data []float64 `json:"data,omitempty"`
}

// Reply is one server → client message.
type Reply struct {
	Event   string `json:"event"`
	Session string `json:"session,omitempty"` // ready: echoed start ID
	Model   string `json:"model,omitempty"`   // ready: resolved variant name
	Reason  string `json:"reason,omitempty"`  // reject / error detail
	// RetryAfterMS accompanies capacity/draining rejects: the client
	// should back off at least this long before redialing (admission
	// backpressure). Unknown-model rejects omit it — retrying cannot
	// help.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Available accompanies unknown-model rejects: the variant names
	// this server can decode with.
	Available []string `json:"available,omitempty"`
	// Permanent marks a reject that retrying cannot fix (unknown model,
	// invalid controller config) — the client should repair the request
	// instead of backing off.
	Permanent bool `json:"permanent,omitempty"`

	// partial / result payload
	Words  []int   `json:"words,omitempty"`
	Cost   float64 `json:"cost,omitempty"`
	OK     bool    `json:"ok,omitempty"`
	Frames int     `json:"frames,omitempty"`
}
