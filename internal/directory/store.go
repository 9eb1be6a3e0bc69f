// Package directory implements Flecc's directory manager (paper §4.2): the
// runtime component attached to the original component. It keeps track of
// which views are running, controls which views are allowed to be active,
// commits pushed updates into the primary copy, and uses the
// application-supplied information — data properties, validity triggers,
// extract/merge methods — to synchronize only the interested parties.
package directory

import (
	"fmt"
	"sort"
	"sync"

	"flecc/internal/image"
	"flecc/internal/property"
	"flecc/internal/vclock"
)

// UpdateRec is one committed update in the primary's log. The log is what
// lets Flecc answer the paper's quality question: "how many remote updates
// has this view not seen?"
type UpdateRec struct {
	// Version is the primary version assigned to the commit.
	Version vclock.Version
	// Writer is the view whose changes were committed ("" for updates
	// originating at the primary itself).
	Writer string
	// Props describes which shared data the update touched.
	Props property.Set
	// Ops is the number of logical operations (view use-windows) folded
	// into the commit.
	Ops int
	// At is the virtual time of the commit.
	At vclock.Time
}

type shadowEntry struct {
	version vclock.Version
	writer  string
	deleted bool
}

// dirtyRec is one record in the store's version-ordered dirty-key index:
// key changed at version. Commit appends records in version order, so the
// slice stays sorted without ever sorting on the hot path. When a key is
// committed again, its old record is not removed (that would be O(n)); it
// becomes stale — detectable because the shadow's version for the key has
// moved on — and is skipped on reads and dropped on the next rebuild.
type dirtyRec struct {
	version vclock.Version
	key     string
}

// Store wraps the original component's extract/merge codec with the
// protocol metadata Flecc maintains around it: a monotonic version
// counter, a per-key shadow of (version, writer) used for conflict
// detection, and the update log used for quality accounting. Store is the
// application-neutral half of the directory manager: it never interprets
// entry payloads.
type Store struct {
	// mu is a reader/writer lock: commits take the write side, extracts and
	// quality queries the read side, so concurrent pulls of non-conflicting
	// views no longer serialize on the store.
	mu      sync.RWMutex
	primary image.Codec
	// keyed is primary's keyed-extraction extension when it has one; nil
	// means delta pulls fall back to full extract + DeltaSince.
	keyed   image.KeyedExtractor
	clock   vclock.Clock
	counter vclock.Counter
	// gen counts metadata mutations (commits, restores, absorbs). Extract
	// snapshots it, calls the primary codec *outside* the lock, and
	// revalidates: an unchanged gen proves nothing moved underneath the
	// unlocked codec call.
	gen    uint64
	shadow map[string]shadowEntry
	// dirty is the version-ordered dirty-key index feeding incremental
	// extraction; stale counts its superseded records, driving rebuilds.
	dirty []dirtyRec
	stale int
	log   []UpdateRec
	// resolver adjudicates concurrent-update conflicts; nil means
	// last-writer-wins in commit order (the incoming update wins, since it
	// is the latest).
	resolver image.Resolver
	// conflictsSeen counts conflicts detected across all commits.
	conflictsSeen int
}

// NewStore builds a store around the original component's codec.
func NewStore(primary image.Codec, clock vclock.Clock) *Store {
	keyed, _ := primary.(image.KeyedExtractor)
	return &Store{
		primary: primary,
		keyed:   keyed,
		clock:   clock,
		shadow:  map[string]shadowEntry{},
	}
}

// SetResolver installs the application's conflict resolver (nil restores
// incoming-wins).
func (s *Store) SetResolver(r image.Resolver) {
	s.mu.Lock()
	s.resolver = r
	s.mu.Unlock()
}

// Current returns the latest committed primary version.
func (s *Store) Current() vclock.Version { return s.counter.Current() }

// ConflictsSeen returns the number of concurrent-update conflicts detected
// so far.
func (s *Store) ConflictsSeen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.conflictsSeen
}

// Commit folds a view's delta into the primary copy. Each delta entry's
// Version field carries the version of the data the view based its change
// on; when the shadow shows a newer committed version by a different
// writer, the entries conflict and the resolver (or incoming-wins) decides.
// Commit assigns one new primary version to the whole delta, merges the
// winning entries into the original component, updates the shadow, and
// appends an update record with the given op count.
//
// The returned rejected image (nil when empty) contains, for every key
// where the resolver kept the primary's value, that winning entry — the
// caller sends it back to the pusher so the losing view converges instead
// of silently keeping its rejected value.
//
// An empty delta commits nothing and returns the current version.
func (s *Store) Commit(writer string, delta *image.Image, ops int) (vclock.Version, int, *image.Image, error) {
	if delta == nil || delta.Len() == 0 {
		return s.counter.Current(), 0, nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Detect conflicting keys via the shadow.
	var conflictKeys []string
	for _, k := range delta.Keys() {
		e := delta.Entries[k]
		if sh, ok := s.shadow[k]; ok && sh.version > e.Version && sh.writer != writer {
			conflictKeys = append(conflictKeys, k)
		}
	}

	apply := image.New(delta.Props.Clone())
	rejected := image.New(delta.Props.Clone())
	newVer := s.counter.Next()

	var current *image.Image
	if len(conflictKeys) > 0 && s.resolver != nil {
		// The resolver needs the primary's current values for just the
		// conflicting keys; incoming-wins never reads them.
		var err error
		if s.keyed != nil {
			current, err = s.keyed.ExtractKeys(delta.Props, conflictKeys)
		} else {
			current, err = s.primary.Extract(delta.Props)
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("directory: extract for conflict resolution: %w", err)
		}
	}
	conflicts := 0
	isConflict := map[string]bool{}
	for _, k := range conflictKeys {
		isConflict[k] = true
	}
	for _, k := range delta.Keys() {
		theirs := delta.Entries[k].Clone()
		if isConflict[k] {
			conflicts++
			winner := theirs
			if s.resolver != nil {
				var ours image.Entry
				if current != nil {
					if ce, ok := current.Get(k); ok {
						ours = ce
						ours.Version = s.shadow[k].version
						ours.Writer = s.shadow[k].writer
					}
				}
				w, err := s.resolver(image.Conflict{Key: k, Ours: ours, Theirs: theirs})
				if err != nil {
					return 0, 0, nil, fmt.Errorf("directory: resolve %q: %w", k, err)
				}
				winner = w
				if winner.Equal(ours) {
					// The primary's value survives: keep the shadow as-is,
					// skip the merge for this key, and report the winning
					// value back to the pusher so it converges.
					rejected.Put(ours)
					continue
				}
			}
			theirs = winner
		}
		theirs.Version = newVer
		theirs.Writer = writer
		apply.Put(theirs)
		if _, existed := s.shadow[k]; existed {
			// The key's previous dirty record is now superseded.
			s.stale++
		}
		s.shadow[k] = shadowEntry{version: newVer, writer: writer, deleted: theirs.Deleted}
		s.dirty = append(s.dirty, dirtyRec{version: newVer, key: k})
	}
	s.conflictsSeen += conflicts
	if s.stale > len(s.shadow)+16 {
		s.rebuildDirtyLocked()
	}

	apply.Version = newVer
	if apply.Len() > 0 {
		if err := s.primary.Merge(apply, delta.Props); err != nil {
			return 0, 0, nil, fmt.Errorf("directory: merge into primary: %w", err)
		}
	}
	s.log = append(s.log, UpdateRec{
		Version: newVer,
		Writer:  writer,
		Props:   delta.Props.Clone(),
		Ops:     ops,
		At:      s.clock.Now(),
	})
	s.gen++
	rejected.Version = newVer
	if rejected.Len() == 0 {
		return newVer, conflicts, nil, nil
	}
	return newVer, conflicts, rejected, nil
}

// rebuildDirtyLocked regenerates the dirty index from the shadow: one
// record per key at its current version, sorted by (version, key). Called
// under the write lock when stale records pile up or when the shadow is
// replaced wholesale (Restore/Absorb).
func (s *Store) rebuildDirtyLocked() {
	s.dirty = s.dirty[:0]
	for k, sh := range s.shadow {
		s.dirty = append(s.dirty, dirtyRec{version: sh.version, key: k})
	}
	sort.Slice(s.dirty, func(i, j int) bool {
		if s.dirty[i].version != s.dirty[j].version {
			return s.dirty[i].version < s.dirty[j].version
		}
		return s.dirty[i].key < s.dirty[j].key
	})
	s.stale = 0
}

// Extract snapshots the primary copy restricted to props, stamps entries
// with their shadow metadata, and — when since > 0 — trims the result to
// entries committed after since (a delta). The image's Version is always
// the current primary version.
//
// Delta pulls of a keyed primary take the incremental path: the dirty-key
// index pinpoints exactly which keys changed after since, so only those
// keys are extracted instead of snapshotting everything and discarding
// most of it. Either way the primary codec is called outside the store
// lock — a generation check detects a racing commit and retries.
func (s *Store) Extract(props property.Set, since vclock.Version) (*image.Image, error) {
	if since > 0 && s.keyed != nil {
		img, ok, err := s.extractDelta(props, since)
		if ok {
			return img, err
		}
	}
	return s.extractFull(props, since)
}

// extractFull is the classic path: full primary snapshot, shadow overlay,
// tombstone synthesis, optional DeltaSince trim.
func (s *Store) extractFull(props property.Set, since vclock.Version) (*image.Image, error) {
	for attempt := 0; ; attempt++ {
		// After two generation-check failures, hold the read lock across the
		// codec call; progress beats parallelism under a commit storm.
		locked := attempt >= 2
		s.mu.RLock()
		gen := s.gen
		ver := s.counter.Current()
		if !locked {
			s.mu.RUnlock()
		}
		img, err := s.primary.Extract(props)
		if err != nil {
			if locked {
				s.mu.RUnlock()
			}
			return nil, fmt.Errorf("directory: extract from primary: %w", err)
		}
		if img == nil {
			img = image.New(props.Clone())
		}
		if !locked {
			s.mu.RLock()
			if s.gen != gen {
				s.mu.RUnlock()
				continue // a commit raced the unlocked snapshot; retry
			}
		}
		for k, e := range img.Entries {
			if sh, ok := s.shadow[k]; ok {
				e.Version = sh.version
				e.Writer = sh.writer
				img.Entries[k] = e
			}
		}
		// Deleted keys are gone from the primary extract, so a puller would
		// never learn about them; synthesize tombstones from the shadow.
		// (Merging a tombstone for a key a view never held is a harmless
		// no-op, so tombstones are not filtered by props.)
		for k, sh := range s.shadow {
			if !sh.deleted {
				continue
			}
			if _, present := img.Get(k); present {
				continue
			}
			img.Put(image.Entry{Key: k, Version: sh.version, Writer: sh.writer, Deleted: true})
		}
		s.mu.RUnlock()
		img.Version = ver
		if since > 0 {
			img = img.DeltaSince(since)
		}
		return img, nil
	}
}

// extractDelta serves Extract(props, since>0) from the dirty-key index:
// binary-search the index for the first change after since, partition the
// tail into live keys and tombstones, and ask the keyed primary for just
// the live keys. Returns ok=false to fall back to the full path when a
// commit races the unlocked codec call.
func (s *Store) extractDelta(props property.Set, since vclock.Version) (*image.Image, bool, error) {
	s.mu.RLock()
	gen := s.gen
	ver := s.counter.Current()
	start := sort.Search(len(s.dirty), func(i int) bool { return s.dirty[i].version > since })
	var liveKeys []string
	var tombs []image.Entry
	for i := start; i < len(s.dirty); i++ {
		rec := s.dirty[i]
		sh, ok := s.shadow[rec.key]
		if !ok || sh.version != rec.version {
			continue // superseded record; the key's current version has its own
		}
		if sh.deleted {
			// Tombstones are not filtered by props, mirroring the full path.
			tombs = append(tombs, image.Entry{Key: rec.key, Version: sh.version, Writer: sh.writer, Deleted: true})
		} else {
			liveKeys = append(liveKeys, rec.key)
		}
	}
	s.mu.RUnlock()

	var img *image.Image
	if len(liveKeys) == 0 {
		img = image.New(props.Clone())
	} else {
		var err error
		img, err = s.keyed.ExtractKeys(props, liveKeys)
		if err != nil {
			return nil, true, fmt.Errorf("directory: extract from primary: %w", err)
		}
		if img == nil {
			img = image.New(props.Clone())
		}
	}

	s.mu.RLock()
	if s.gen != gen {
		s.mu.RUnlock()
		return nil, false, nil // a commit raced; take the full path
	}
	for k, e := range img.Entries {
		if sh, ok := s.shadow[k]; ok {
			e.Version = sh.version
			e.Writer = sh.writer
			img.Entries[k] = e
		}
	}
	s.mu.RUnlock()
	for _, t := range tombs {
		if _, present := img.Get(t.Key); !present {
			img.Put(t)
		}
	}
	img.Version = ver
	return img, true, nil
}

// UnseenOps implements the paper's data-quality metric for the committed
// part of the system state: the total Ops of update records that (i) were
// committed after the given version, (ii) were written by someone other
// than viewer, and (iii) touch data overlapping the viewer's props.
func (s *Store) UnseenOps(since vclock.Version, viewer string, props property.Set) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for i := len(s.log) - 1; i >= 0; i-- {
		rec := s.log[i]
		if rec.Version <= since {
			break // log is version-ordered
		}
		if rec.Writer == viewer {
			continue
		}
		if !props.IsEmpty() && !rec.Props.IsEmpty() && !props.Overlaps(rec.Props) {
			continue
		}
		total += rec.Ops
	}
	return total
}

// CheckInvariants verifies the store's internal bookkeeping and returns
// the first violation found (nil when consistent). It is the exported
// self-check the model checker (internal/modelcheck) runs after every
// explored transition, and existing tests assert it behind
// FLECC_TEST_INVARIANTS=1. Checked:
//
//   - every shadow entry's version is positive and ≤ the counter;
//   - the update log is strictly version-ordered and bounded by the counter;
//   - every shadow entry's current version has a live dirty-index record,
//     the index is version-ordered, and no dirty record claims a version
//     newer than the counter;
//   - the stale count never exceeds the index length.
func (s *Store) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur := s.counter.Current()
	for k, sh := range s.shadow {
		if sh.version == 0 {
			return fmt.Errorf("store: shadow %q has version 0", k)
		}
		if sh.version > cur {
			return fmt.Errorf("store: shadow %q at v%d exceeds counter v%d", k, sh.version, cur)
		}
	}
	var prev vclock.Version
	for i, rec := range s.log {
		if rec.Version <= prev {
			return fmt.Errorf("store: log[%d] v%d not strictly after v%d", i, rec.Version, prev)
		}
		if rec.Version > cur {
			return fmt.Errorf("store: log[%d] v%d exceeds counter v%d", i, rec.Version, cur)
		}
		prev = rec.Version
	}
	live := map[string]vclock.Version{}
	var prevDirty vclock.Version
	for i, rec := range s.dirty {
		if rec.version > cur {
			return fmt.Errorf("store: dirty[%d] %q at v%d exceeds counter v%d", i, rec.key, rec.version, cur)
		}
		if rec.version < prevDirty {
			return fmt.Errorf("store: dirty[%d] %q at v%d out of order after v%d", i, rec.key, rec.version, prevDirty)
		}
		prevDirty = rec.version
		if sh, ok := s.shadow[rec.key]; ok && sh.version == rec.version {
			live[rec.key] = rec.version
		}
	}
	for k, sh := range s.shadow {
		if v, ok := live[k]; !ok || v != sh.version {
			return fmt.Errorf("store: shadow %q at v%d has no live dirty record", k, sh.version)
		}
	}
	if s.stale > len(s.dirty) {
		return fmt.Errorf("store: stale count %d exceeds dirty index length %d", s.stale, len(s.dirty))
	}
	return nil
}

// Log returns a copy of the update log (for tests and tools).
func (s *Store) Log() []UpdateRec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]UpdateRec, len(s.log))
	copy(out, s.log)
	return out
}

// CompactLog drops log records at or below the given version; callers use
// it once every registered view has seen past that point.
func (s *Store) CompactLog(upTo vclock.Version) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.log) && s.log[i].Version <= upTo {
		i++
	}
	dropped := i
	s.log = append([]UpdateRec(nil), s.log[i:]...)
	return dropped
}
