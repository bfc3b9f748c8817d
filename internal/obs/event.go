package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The wide-event layer is the per-request half of the observability
// subsystem: where counters aggregate and spans explain intervals, a
// wide event is the one canonical record of a request's whole life —
// identity, routing, placement, outcome, and the full latency
// attribution vector — emitted exactly once when the request reaches
// a terminal state (served, failed, rejected, or shed). Like the rest
// of the package it never reads wall time: every stamp is a
// virtual-clock reading supplied by the emitter, so a deterministic
// run produces a byte-identical event log at any worker count and
// results/events.jsonl can be committed and diffed like the numeric
// tables.

// Outcome values: every offered request ends in exactly one of these,
// so summing event counts by outcome reconciles with the metrics
// partition Served+Failed+Rejected+Shed.
const (
	OutcomeServed   = "served"
	OutcomeFailed   = "failed"
	OutcomeRejected = "rejected"
	OutcomeShed     = "shed"
)

// EventNoDrive marks an event that never reached a drive (rejected at
// admission, shed, or failed before dispatch). Cache hits carry the
// staging tier's pseudo-drive (-1, hsm.CacheDriveID); real serves
// carry the drive index.
const EventNoDrive = -2

// Event is one wide request record. Field order is the JSONL column
// order; encoding/json emits struct fields in declaration order and
// floats in shortest-round-trip form, so marshaling is deterministic.
type Event struct {
	// Seq orders events within one emitter: assigned by the ring at
	// Add time (1-based, dense) unless the event already carries one
	// (the fleet fold preserves per-shard sequence numbers).
	Seq int64 `json:"seq"`
	// Shard is the serving library's fleet shard, 0 outside a fleet.
	Shard int `json:"shard"`
	// Object names the requested object; Tape is the cartridge serial
	// the catalog placed it on (the primary copy's, for replicated
	// placements), -1 when the request never resolved.
	Object string `json:"object"`
	Tape   int64  `json:"tape"`
	// Drive is the serving drive index, hsm's CacheDriveID (-1) for a
	// staging-cache hit, or EventNoDrive (-2) when no drive was ever
	// involved.
	Drive int `json:"drive"`
	// Class is the request's service class ("standard" or
	// "best-effort").
	Class string `json:"class"`
	// Outcome is the terminal state: one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Cache reports whether the staging tier served the request.
	Cache bool `json:"cache"`
	// Route is the routing tier's decision for the request
	// ("affinity", "cross-shard", "unroutable", "routed"), "" outside
	// a fleet.
	Route string `json:"route,omitempty"`
	// Replica is the cartridge copy that finally served the request
	// (0 = primary).
	Replica int `json:"replica"`
	// ArrivalSec and DoneSec bound the request on the virtual clock;
	// DoneSec is the terminal instant (completion, failure, or the
	// shed/reject decision).
	ArrivalSec float64 `json:"arrival_sec"`
	DoneSec    float64 `json:"done_sec"`
	// The attribution vector decomposes DoneSec-ArrivalSec into the
	// phases of the request's journey; the components telescope to
	// the sojourn within 1e-9 for every outcome (non-served requests
	// book their whole wait as queue + rescue time).
	QueueSec    float64 `json:"queue_sec"`
	RobotSec    float64 `json:"robot_sec"`
	MountSec    float64 `json:"mount_sec"`
	LocateSec   float64 `json:"locate_sec"`
	TransferSec float64 `json:"transfer_sec"`
	RetrySec    float64 `json:"retry_sec"`
	RescueSec   float64 `json:"rescue_sec"`
	// Labels carry the emitting cell's coordinates (rate, shards,
	// router, ...) in recording order, attached when sweep cells fold
	// their events into a shared ring.
	Labels []Label `json:"labels,omitempty"`
}

// SojournSec is the request's terminal latency on the virtual clock.
func (e Event) SojournSec() float64 { return e.DoneSec - e.ArrivalSec }

// AttributionSum returns the total of the attribution components —
// the reconstructed sojourn.
func (e Event) AttributionSum() float64 {
	return e.QueueSec + e.RobotSec + e.MountSec + e.LocateSec + e.TransferSec + e.RetrySec + e.RescueSec
}

// EventRing is a bounded, deterministic store of wide events: a Ring
// retaining the most recent cap events in emission order. It is safe
// for concurrent use; within one single-threaded simulation the store
// content is a pure function of the run. A nil *EventRing is a valid
// no-op sink — every method no-ops — so emission points never branch
// on whether wide events are enabled, and an un-instrumented run pays
// nothing.
type EventRing struct{ ring *Ring[Event] }

// NewEventRing returns a ring retaining the most recent cap events
// (minimum 1).
func NewEventRing(cap int) *EventRing { return &EventRing{NewRing[Event](cap)} }

// store returns the backing ring, nil on a nil *EventRing.
func (r *EventRing) store() *Ring[Event] {
	if r == nil {
		return nil
	}
	return r.ring
}

// Add records one event, evicting the oldest when full. If the event
// carries no sequence number it gets its 1-based position in the
// emission stream (the fleet fold preserves per-shard numbers).
func (r *EventRing) Add(ev Event) { r.store().add(ev, stampSeq) }

func stampSeq(ev Event, n int64) Event {
	if ev.Seq == 0 {
		ev.Seq = n
	}
	return ev
}

// Events returns the retained events, oldest first.
func (r *EventRing) Events() []Event { return r.store().Items() }

// AppendEvents appends the retained events, oldest first, to dst; see
// Ring.AppendItems.
func (r *EventRing) AppendEvents(dst []Event) []Event { return r.store().AppendItems(dst) }

// Tail returns the retained events whose emission index (0-based
// position in the total stream) is at least from, oldest first; see
// Ring.Tail.
func (r *EventRing) Tail(from int64) []Event { return r.store().Tail(from) }

// Total returns how many events were ever added.
func (r *EventRing) Total() int64 { return r.store().Total() }

// Dropped returns the number of evicted events.
func (r *EventRing) Dropped() int64 { return r.store().Dropped() }

// WriteEventsJSONL renders events one JSON object per line. Field
// order follows the Event struct and floats use encoding/json's
// shortest-round-trip formatting, so the output is byte-deterministic
// for a deterministic event sequence. head <= 0 writes every event;
// otherwise only the first head.
func WriteEventsJSONL(w io.Writer, events []Event, head int) error {
	if head <= 0 || head > len(events) {
		head = len(events)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events[:head] {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEventsJSONL parses a JSONL event log (blank lines skipped).
func ReadEventsJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
