package spec

import (
	"errors"
	"net/url"
	"reflect"
	"testing"
)

// TestRegistryDuplicatePanics pins the duplicate-name panic text every
// component registry reports.
func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry[int]("test: Register")
	r.Register("a", 1)
	defer func() {
		if got, want := recover(), `test: Register("a") called twice`; got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
	}()
	r.Register("a", 2)
}

// TestRegistryNamesSortedAndLookup pins that Names is sorted whatever
// the registration order, and that Lookup finds exactly what was
// registered.
func TestRegistryNamesSortedAndLookup(t *testing.T) {
	r := NewRegistry[int]("test: Register")
	for i, n := range []string{"hash", "binpack", "least-loaded"} {
		r.Register(n, i)
	}
	if got, want := r.Names(), []string{"binpack", "hash", "least-loaded"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if b, ok := r.Lookup("binpack"); !ok || b != 1 {
		t.Errorf("Lookup(binpack) = %v, %v", b, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup of an unregistered name succeeded")
	}
}

func buildKA(p *Params) (string, error) {
	ka, err := p.Duration("ka", 0)
	if err != nil {
		return "", err
	}
	if ka <= 0 {
		return "", errors.New("parameter ka: must be positive")
	}
	return ka.String(), nil
}

// TestBuild pins Build's error surface: builder errors come before
// unknown keys, unknown keys list the builder's vocabulary, repeated
// keys are rejected, and query parse errors pass through unchanged.
func TestBuild(t *testing.T) {
	if v, err := Build("ka=90s", buildKA); err != nil || v != "1m30s" {
		t.Errorf("Build(ka=90s) = %q, %v", v, err)
	}
	for _, c := range []struct{ query, want string }{
		{"ka=-1m&typo=1", "parameter ka: must be positive"},
		{"ka=1m&typo=1&b=2", "unknown parameters [b typo] (known: [ka])"},
		{"ka=10m&ka=1h", "parameter ka: given 2 times"},
	} {
		if _, err := Build(c.query, buildKA); err == nil || err.Error() != c.want {
			t.Errorf("Build(%q) error = %v, want %q", c.query, err, c.want)
		}
	}
	_, want := url.ParseQuery("ka=%zz")
	if _, err := Build("ka=%zz", buildKA); err == nil || err.Error() != want.Error() {
		t.Errorf("Build(ka=%%zz) error = %v, want the query parser's %v", err, want)
	}
}
