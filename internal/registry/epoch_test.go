package registry

import (
	"reflect"
	"testing"

	"flecc/internal/property"
)

// TestEpochBumps pins which mutations are structural (bump the epoch,
// invalidating cached conflict sets) and which are not.
func TestEpochBumps(t *testing.T) {
	r := New()
	e := r.Epoch()
	step := func(name string, fn func(), wantBump bool) {
		t.Helper()
		fn()
		got := r.Epoch()
		if wantBump && got <= e {
			t.Fatalf("%s: epoch %d did not advance past %d", name, got, e)
		}
		if !wantBump && got != e {
			t.Fatalf("%s: epoch moved %d -> %d for a non-structural change", name, e, got)
		}
		e = got
	}

	step("register a", func() { r.Register("a", property.MustSet("P={0..9}")) }, true)
	step("register b", func() { r.Register("b", property.MustSet("P={5..14}")) }, true)
	step("set-active", func() { r.SetActive("a", true) }, false)
	step("set-active off", func() { r.SetActive("a", false) }, false)
	step("set-props", func() { r.SetProps("b", property.MustSet("Q={0..9}")) }, true)
	step("set-lost", func() { r.SetLost("b", true) }, true)
	step("set-lost same", func() { r.SetLost("b", true) }, false)
	step("revive", func() { r.SetLost("b", false) }, true)
	step("set-static", func() { r.SetStatic("a", "b", Conflict) }, true)
	step("default-relation", func() { r.SetDefaultRelation(NoConflict) }, true)
	step("unregister", func() { r.Unregister("b") }, true)
}

// TestConflictCacheExact checks that the epoch-keyed conflict-set cache
// always answers exactly what a fresh computation would: across property
// changes, static overlays, lost transitions, and the per-query active
// filter (which must not be baked into the cached structural set).
func TestConflictCacheExact(t *testing.T) {
	r := New()
	fresh := func(name string, activeOnly bool) []string {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.conflictingWithLocked(name, activeOnly)
	}
	check := func(when string) {
		t.Helper()
		for _, n := range r.Views() {
			for _, activeOnly := range []bool{false, true} {
				got := r.ConflictingWith(n, activeOnly)
				want := fresh(n, activeOnly)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ConflictingWith(%s, activeOnly=%v) = %v, fresh scan = %v",
						when, n, activeOnly, got, want)
				}
			}
		}
	}

	r.Register("a", property.MustSet("P={0..9}"))
	r.Register("b", property.MustSet("P={5..14}"))
	r.Register("c", property.MustSet("Q={0..9}"))
	check("initial")
	// Hit the cache twice in a row (second query is served memoized).
	check("repeat")

	r.SetActive("b", true)
	check("after activate (no epoch bump, active filter per query)")

	r.SetProps("c", property.MustSet("P={0..4}"))
	check("after set-props")

	r.SetStatic("a", "c", NoConflict)
	check("after static override")

	r.SetLost("b", true)
	check("after eviction")
	r.SetLost("b", false)
	check("after revival")

	r.Unregister("c")
	check("after unregister")
}
