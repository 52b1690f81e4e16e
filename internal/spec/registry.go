package spec

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps component names to builders of type B. Every
// component registry (policies, placements, trace sources, metric
// sinks) is one, so name lookup, duplicate rejection and the sorted
// name listing behind "unknown ... (registered: [...])" errors are
// written once.
type Registry[B any] struct {
	register string // "policy: Register": the duplicate-name panic prefix
	mu       sync.RWMutex
	builders map[string]B
}

// NewRegistry returns an empty registry. register names the
// registering function in the duplicate-name panic, e.g.
// "scenario: RegisterSink".
func NewRegistry[B any](register string) *Registry[B] {
	return &Registry[B]{register: register, builders: map[string]B{}}
}

// Register adds a named builder. Registering a duplicate name panics
// (programming error).
func (r *Registry[B]) Register(name string, b B) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.builders[name]; dup {
		panic(fmt.Sprintf("%s(%q) called twice", r.register, name))
	}
	r.builders[name] = b
}

// Lookup returns the builder registered under name.
func (r *Registry[B]) Lookup(name string) (B, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.builders[name]
	return b, ok
}

// Names returns the registered names, sorted.
func (r *Registry[B]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.builders))
	for n := range r.builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build parses query, hands the parameters to build and rejects keys
// the builder never read — a misspelled key fails with
// "unknown parameters [...] (known: [...])" instead of silently
// configuring the default. It is the only way to obtain Params, so
// every spec grammar enforces the rule by construction. Builder errors
// take precedence over unknown keys.
func Build[T any](query string, build func(*Params) (T, error)) (T, error) {
	var zero T
	p, err := parse(query)
	if err != nil {
		return zero, err
	}
	v, err := build(p)
	if err != nil {
		return zero, err
	}
	if left := p.Unused(); len(left) > 0 {
		return zero, fmt.Errorf("unknown parameters %v (known: %v)", left, p.Known())
	}
	return v, nil
}
