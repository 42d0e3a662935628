package gateway

import "slices"

// A node can decide a job inside the submission that creates it (a local
// accept is one guarantee test), so a reader of decisions can learn a
// verdict before the Submit call that will return the job's cluster ID has
// returned, when nobody yet knows whom the ID belongs to. Both layers that
// forward jobs (the Server and HTTPBackend) therefore keep what is reported
// about unknown IDs, but only for as long as it can matter: every Submit in
// flight opens a window, a report about an unknown ID is offered to the
// windows open at that moment, and a window dies with its Submit. Nothing is
// held while no Submit is in flight, and reports about IDs that are never
// claimed (another submitter's jobs, a restarted reader's history) cannot
// accumulate.

// window collects what was reported about unknown cluster IDs during one
// Submit call.
type window[V any] struct {
	seen map[string]V
}

// windows is the set of open windows. It is not synchronized: the owner
// guards it with the lock that guards its table of known IDs.
type windows[V any] []*window[V]

// open starts a window; call it before Submit.
func (ws *windows[V]) open() *window[V] {
	w := &window[V]{}
	*ws = append(*ws, w)
	return w
}

// offer records a report about an ID nobody has claimed yet.
func (ws windows[V]) offer(id string, v V) {
	for _, w := range ws {
		if w.seen == nil {
			w.seen = make(map[string]V)
		}
		w.seen[id] = v
	}
}

// close ends w and returns what was reported about id while it was open.
func (ws *windows[V]) close(w *window[V], id string) (v V, ok bool) {
	if i := slices.Index(*ws, w); i >= 0 {
		*ws = slices.Delete(*ws, i, i+1)
	}
	v, ok = w.seen[id]
	return v, ok
}
