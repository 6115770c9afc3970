package obs

import (
	"fmt"
	"time"
)

// defaultEventCap bounds the per-recorder event log; newest events
// overwrite the oldest once full.
const defaultEventCap = 256

// Event is one entry in the recorder's bounded event log: a rare,
// state-changing cluster occurrence (backup promotion, primary fencing,
// solo-drop of a dead backup, client rebind, lease break) that a latency
// histogram cannot represent. Unlike span times — which are relative to one
// recorder's epoch — the wall timestamp is absolute (UnixNano), so events
// scraped from different processes sort into one fleet-wide timeline.
type Event struct {
	Name       string `json:"name"`
	Detail     string `json:"detail,omitempty"`
	WallUnixNS int64  `json:"wall_unix_ns"`
	VirtNS     int64  `json:"virt_ns"`
}

// Event appends an entry to the bounded event log. Nil-safe.
func (r *Recorder) Event(name, detail string) {
	if r == nil {
		return
	}
	ev := Event{
		Name:       name,
		Detail:     detail,
		WallUnixNS: time.Now().UnixNano(),
		VirtNS:     int64(r.vnow()),
	}
	log := r.events.Load()
	if log == nil {
		r.events.CompareAndSwap(nil, newRing[Event](defaultEventCap))
		log = r.events.Load()
	}
	log.add(ev)
}

// Eventf is Event with a formatted detail string.
func (r *Recorder) Eventf(name, format string, args ...any) {
	if r == nil {
		return
	}
	r.Event(name, fmt.Sprintf(format, args...))
}

// Events returns the retained events oldest-first. The slice is a snapshot
// the caller owns.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if log := r.events.Load(); log != nil {
		return log.snapshot(0)
	}
	return []Event{}
}

// EventTotal returns how many events were ever logged, including any the
// bounded ring has since overwritten.
func (r *Recorder) EventTotal() int {
	if r == nil {
		return 0
	}
	if log := r.events.Load(); log != nil {
		return log.total()
	}
	return 0
}
