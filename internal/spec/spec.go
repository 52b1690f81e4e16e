// Package spec is the shared machinery behind every component
// registry's configuration grammar: a component spec is
//
//	name?key=value&key=value
//
// with URL query syntax after the name — "hybrid?cv=2&range=4h" for a
// policy, "binpack?order=invocations" for a placement,
// "coldstart?q=50,75,99" for a metrics sink. Build parses the query
// and carries the parameters to a builder as Params, whose typed
// accessors record which keys were consumed, and then rejects specs
// with leftover (misspelled) keys — a typo fails fast instead of
// silently configuring the default. Registry holds each component
// kind's named builders.
package spec

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Split splits a component spec into its registry name and raw query
// ("hybrid?cv=2" -> "hybrid", "cv=2"). A spec without '?' is all name.
func Split(s string) (name, query string) {
	if i := strings.IndexByte(s, '?'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// parse parses a raw query string into Params. A key given more than
// once is an error: the accessors read one value, and silently
// dropping the rest would run a cell other than the one written.
func parse(query string) (*Params, error) {
	vals, err := url.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	p := &Params{vals: vals, used: map[string]bool{}}
	for _, k := range p.keys() {
		if n := len(vals[k]); n > 1 {
			return nil, fmt.Errorf("parameter %s: given %d times", k, n)
		}
	}
	return p, nil
}

// Params carries a spec's parsed parameters to a builder. Typed
// accessors record which keys were consumed; Build rejects specs with
// leftover (misspelled) keys afterwards via Unused.
type Params struct {
	vals  url.Values
	used  map[string]bool
	known map[string]bool
}

// Duration returns the named parameter parsed by time.ParseDuration,
// or def when absent.
func (p *Params) Duration(key string, def time.Duration) (time.Duration, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	return d, nil
}

// Float returns the named float parameter, or def when absent.
func (p *Params) Float(key string, def float64) (float64, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	return parseFinite(key, s)
}

// parseFinite parses one float parameter value. NaN and ±Inf are
// rejected: they pass every range check written as a pair of
// comparisons, and a builder's "> 0" guard would turn them into the
// default under a cell labelled with the non-finite value.
func parseFinite(key, s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("parameter %s: want a finite number, got %v", key, f)
	}
	return f, nil
}

// Int returns the named integer parameter, or def when absent.
func (p *Params) Int(key string, def int) (int, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	return n, nil
}

// Uint64 returns the named unsigned integer parameter, or def when
// absent.
func (p *Params) Uint64(key string, def uint64) (uint64, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	return n, nil
}

// Bool returns the named boolean parameter (true/false, on/off, 1/0,
// yes/no), or def when absent.
func (p *Params) Bool(key string, def bool) (bool, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	switch s {
	case "true", "on", "1", "yes":
		return true, nil
	case "false", "off", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("parameter %s: invalid boolean %q", key, s)
}

// String returns the named string parameter, or def when absent.
func (p *Params) String(key, def string) string {
	if s, ok := p.take(key); ok {
		return s
	}
	return def
}

// Floats returns the named parameter parsed as a float list, or def
// when absent. Elements separate on ':' or ',' — ':' is the canonical
// form, since commas already separate list fields in the scenario
// text grammar ("sinks=coldstart?q=50:75:99,waste").
func (p *Params) Floats(key string, def []float64) ([]float64, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == ':' || r == ',' })
	if len(parts) == 0 {
		return nil, fmt.Errorf("parameter %s: empty list %q", key, s)
	}
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		f, err := parseFinite(key, strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func (p *Params) take(key string) (string, bool) {
	if p.known == nil {
		p.known = map[string]bool{}
	}
	p.known[key] = true
	if !p.vals.Has(key) {
		return "", false
	}
	p.used[key] = true
	return p.vals.Get(key), true
}

// Known returns every key a typed accessor asked for, present in the
// spec or not, sorted — the parameters the builder understands. An
// "unknown parameters" error that also lists the known keys turns a
// typo ("binwdith") into a one-glance fix instead of a trip to the
// builder's source.
func (p *Params) Known() []string {
	keys := make([]string, 0, len(p.known))
	for k := range p.known {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Unused returns the keys no accessor consumed, sorted — the
// misspellings Build turns into "unknown parameters" errors.
func (p *Params) Unused() []string {
	var left []string
	for _, k := range p.keys() {
		if !p.used[k] {
			left = append(left, k)
		}
	}
	return left
}

// keys returns the spec's keys, sorted.
func (p *Params) keys() []string {
	keys := make([]string, 0, len(p.vals))
	for k := range p.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
