package directory

import (
	"fmt"
	"testing"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// mapStore is a trivial primary component: a map of key->string with the
// image codec implemented over it.
type mapStore struct {
	data map[string]string
}

func newMapStore() *mapStore { return &mapStore{data: map[string]string{}} }

func (s *mapStore) Extract(props property.Set) (*image.Image, error) {
	img := image.New(props.Clone())
	for k, v := range s.data {
		img.Put(image.Entry{Key: k, Value: []byte(v)})
	}
	return img, nil
}

func (s *mapStore) Merge(img *image.Image, props property.Set) error {
	for k, e := range img.Entries {
		if e.Deleted {
			delete(s.data, k)
			continue
		}
		s.data[k] = string(e.Value)
	}
	return nil
}

func delta(props string, kv ...string) *image.Image {
	img := image.New(property.MustSet(props))
	for i := 0; i+1 < len(kv); i += 2 {
		img.Put(image.Entry{Key: kv[i], Value: []byte(kv[i+1])})
	}
	return img
}

func TestStoreCommitAndExtract(t *testing.T) {
	ms := newMapStore()
	st := NewStore(ms, vclock.NewSim())
	v, conflicts, _, err := st.Commit("v1", delta("F={1}", "k1", "a", "k2", "b"), 2)
	if err != nil || conflicts != 0 || v != 1 {
		t.Fatalf("commit: v=%d conflicts=%d err=%v", v, conflicts, err)
	}
	if ms.data["k1"] != "a" {
		t.Fatal("primary not updated")
	}
	img, err := st.Extract(property.MustSet("F={1}"), 0)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := img.Get("k1")
	if !ok || e.Version != 1 || e.Writer != "v1" {
		t.Fatalf("extract entry = %+v", e)
	}
	if img.Version != 1 {
		t.Fatalf("img version = %d", img.Version)
	}
}

func TestStoreEmptyCommitIsNoop(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	v, _, _, err := st.Commit("v1", nil, 0)
	if err != nil || v != 0 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	v, _, _, err = st.Commit("v1", image.New(property.NewSet()), 0)
	if err != nil || v != 0 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if len(st.Log()) != 0 {
		t.Fatal("no log records expected")
	}
}

func TestStoreDeltaExtract(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.Commit("v1", delta("F={1}", "k1", "a"), 1)
	st.Commit("v2", delta("F={1}", "k2", "b"), 1)
	img, err := st.Extract(property.MustSet("F={1}"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if img.Len() != 1 {
		t.Fatalf("delta should contain only k2, got %v", img.Keys())
	}
	if _, ok := img.Get("k2"); !ok {
		t.Fatal("k2 missing from delta")
	}
}

func TestStoreConflictDetection(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	// v1 commits k at version 1.
	st.Commit("v1", delta("F={1}", "k", "from-v1"), 1)
	// v2 commits based on version 0 (stale): conflict.
	d := delta("F={1}", "k", "from-v2")
	e := d.Entries["k"]
	e.Version = 0
	d.Entries["k"] = e
	_, conflicts, _, err := st.Commit("v2", d, 1)
	if err != nil || conflicts != 1 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
	if st.ConflictsSeen() != 1 {
		t.Fatal("ConflictsSeen should be 1")
	}
	// Incoming wins by default.
	img, _ := st.Extract(property.MustSet("F={1}"), 0)
	ent, _ := img.Get("k")
	if string(ent.Value) != "from-v2" {
		t.Fatalf("winner = %q", ent.Value)
	}
}

func TestStoreSameWriterNoConflict(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.Commit("v1", delta("F={1}", "k", "a"), 1)
	// Same writer updating again with stale base version: not a conflict.
	d := delta("F={1}", "k", "a2")
	e := d.Entries["k"]
	e.Version = 0
	d.Entries["k"] = e
	_, conflicts, _, err := st.Commit("v1", d, 1)
	if err != nil || conflicts != 0 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
}

func TestStoreFreshBaseNoConflict(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.Commit("v1", delta("F={1}", "k", "a"), 1)
	// v2 based its change on version 1 (current): no conflict.
	d := delta("F={1}", "k", "b")
	e := d.Entries["k"]
	e.Version = 1
	d.Entries["k"] = e
	_, conflicts, _, err := st.Commit("v2", d, 1)
	if err != nil || conflicts != 0 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
}

func TestStoreResolverKeepsOurs(t *testing.T) {
	ms := newMapStore()
	st := NewStore(ms, vclock.NewSim())
	st.SetResolver(func(c image.Conflict) (image.Entry, error) {
		return c.Ours, nil // primary always wins
	})
	st.Commit("v1", delta("F={1}", "k", "ours"), 1)
	d := delta("F={1}", "k", "theirs")
	e := d.Entries["k"]
	e.Version = 0
	d.Entries["k"] = e
	_, conflicts, _, err := st.Commit("v2", d, 1)
	if err != nil || conflicts != 1 {
		t.Fatalf("conflicts=%d err=%v", conflicts, err)
	}
	if ms.data["k"] != "ours" {
		t.Fatalf("resolver should keep ours, got %q", ms.data["k"])
	}
	// Shadow must still attribute k to v1.
	img, _ := st.Extract(property.MustSet("F={1}"), 0)
	ent, _ := img.Get("k")
	if ent.Writer != "v1" {
		t.Fatalf("shadow writer = %q", ent.Writer)
	}
}

func TestStoreResolverError(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.SetResolver(func(c image.Conflict) (image.Entry, error) {
		return image.Entry{}, fmt.Errorf("cannot resolve")
	})
	st.Commit("v1", delta("F={1}", "k", "a"), 1)
	d := delta("F={1}", "k", "b")
	e := d.Entries["k"]
	e.Version = 0
	d.Entries["k"] = e
	if _, _, _, err := st.Commit("v2", d, 1); err == nil {
		t.Fatal("resolver error should propagate")
	}
}

func TestStoreUnseenOps(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	st.Commit("a", delta("F={1..3}", "k1", "x"), 2)
	st.Commit("b", delta("F={2..4}", "k2", "y"), 3)
	st.Commit("c", delta("F={9}", "k3", "z"), 5)

	// Viewer "a" with props F={1..3}, seen=0: sees b's 3 ops (overlap),
	// not its own 2, not c's disjoint 5.
	got := st.UnseenOps(0, "a", property.MustSet("F={1..3}"))
	if got != 3 {
		t.Fatalf("unseen = %d, want 3", got)
	}
	// After observing version 2 (b's commit), nothing unseen.
	if got := st.UnseenOps(2, "a", property.MustSet("F={1..3}")); got != 0 {
		t.Fatalf("unseen = %d, want 0", got)
	}
	// A viewer with empty props sees everything by others.
	if got := st.UnseenOps(0, "zz", property.NewSet()); got != 10 {
		t.Fatalf("unseen = %d, want 10", got)
	}
}

func TestStoreCompactLog(t *testing.T) {
	st := NewStore(newMapStore(), vclock.NewSim())
	for i := 0; i < 5; i++ {
		st.Commit("v", delta("F={1}", "k", fmt.Sprintf("x%d", i)), 1)
	}
	dropped := st.CompactLog(3)
	if dropped != 3 || len(st.Log()) != 2 {
		t.Fatalf("dropped=%d remaining=%d", dropped, len(st.Log()))
	}
	// Quality for seen>=3 still correct after compaction.
	if got := st.UnseenOps(3, "other", property.MustSet("F={1}")); got != 2 {
		t.Fatalf("unseen = %d, want 2", got)
	}
}

func TestStoreLogTimes(t *testing.T) {
	clk := vclock.NewSim()
	st := NewStore(newMapStore(), clk)
	clk.Advance(123)
	st.Commit("v", delta("F={1}", "k", "x"), 1)
	log := st.Log()
	if len(log) != 1 || log[0].At != 123 {
		t.Fatalf("log = %+v", log)
	}
}

func TestStoreDeletionCommit(t *testing.T) {
	ms := newMapStore()
	st := NewStore(ms, vclock.NewSim())
	st.Commit("v1", delta("F={1}", "k", "a"), 1)
	d := image.New(property.MustSet("F={1}"))
	d.Put(image.Entry{Key: "k", Version: 1, Writer: "v1", Deleted: true})
	if _, _, _, err := st.Commit("v1", d, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.data["k"]; ok {
		t.Fatal("deletion should remove key from primary")
	}
}

// countingCodec is a mapStore that counts full extracts.
type countingCodec struct {
	*mapStore
	extracts int
}

func (c *countingCodec) Extract(props property.Set) (*image.Image, error) {
	c.extracts++
	return c.mapStore.Extract(props)
}

// countingKeyed adds keyed extraction to countingCodec, recording the
// keys each call asked for.
type countingKeyed struct {
	*countingCodec
	keyed [][]string
}

func (c *countingKeyed) ExtractKeys(props property.Set, keys []string) (*image.Image, error) {
	c.keyed = append(c.keyed, append([]string(nil), keys...))
	img := image.New(props.Clone())
	for _, k := range keys {
		if v, ok := c.data[k]; ok {
			img.Put(image.Entry{Key: k, Value: []byte(v)})
		}
	}
	return img, nil
}

// conflictingCommit seeds keys a, b, c as v1, then commits v2's delta
// over them: a and b based on version 0 (conflicts), c based on v1's
// version (fresh) and d new. It returns the "ours" side of every
// conflict the resolver saw (nil resolver when resolve is false).
func conflictingCommit(t *testing.T, codec image.Codec, resolve bool) []image.Entry {
	t.Helper()
	st := NewStore(codec, vclock.NewSim())
	var ours []image.Entry
	if resolve {
		st.SetResolver(func(c image.Conflict) (image.Entry, error) {
			ours = append(ours, c.Ours)
			return c.Theirs, nil
		})
	}
	v1, _, _, err := st.Commit("v1", delta("F={1}", "a", "a1", "b", "b1", "c", "c1"), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := delta("F={1}", "a", "a2", "b", "b2", "c", "c2", "d", "d2")
	e := d.Entries["c"]
	e.Version = v1
	d.Entries["c"] = e
	_, conflicts, _, err := st.Commit("v2", d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if conflicts != 2 {
		t.Fatalf("conflicts = %d, want 2 (a, b)", conflicts)
	}
	return ours
}

// TestStoreConflictKeyedExtract pins how Commit fetches the resolver's
// "ours" side: a keyed codec is asked for exactly the conflicting keys
// and never for a full extract; with no resolver nothing is extracted;
// a codec without keyed extraction falls back to a full extract, and the
// resolver sees the same "ours" either way.
func TestStoreConflictKeyedExtract(t *testing.T) {
	keyed := &countingKeyed{countingCodec: &countingCodec{mapStore: newMapStore()}}
	keyedOurs := conflictingCommit(t, keyed, true)
	if len(keyed.keyed) != 1 || fmt.Sprint(keyed.keyed[0]) != "[a b]" {
		t.Fatalf("ExtractKeys calls = %v, want one call for [a b]", keyed.keyed)
	}
	if keyed.extracts != 0 {
		t.Fatalf("keyed codec saw %d full extracts, want 0", keyed.extracts)
	}

	silent := &countingKeyed{countingCodec: &countingCodec{mapStore: newMapStore()}}
	conflictingCommit(t, silent, false)
	if len(silent.keyed) != 0 || silent.extracts != 0 {
		t.Fatalf("no resolver: %d keyed and %d full extracts, want none", len(silent.keyed), silent.extracts)
	}

	full := &countingCodec{mapStore: newMapStore()}
	fullOurs := conflictingCommit(t, full, true)
	if full.extracts != 1 {
		t.Fatalf("non-keyed codec saw %d full extracts, want 1", full.extracts)
	}
	if len(keyedOurs) != 2 || fmt.Sprintf("%+v", keyedOurs) != fmt.Sprintf("%+v", fullOurs) {
		t.Fatalf("resolver ours differ: keyed %+v, full %+v", keyedOurs, fullOurs)
	}
	for _, o := range keyedOurs {
		if o.Version != 1 || o.Writer != "v1" || string(o.Value) != o.Key+"1" {
			t.Fatalf("ours = %+v, want v1's value at version 1", o)
		}
	}
}
