// Package intern provides dense string-intern tables. It is the shared
// foundation of two hot paths: the columnar analysis index (internal/store)
// stores every string-valued flow field once and keeps int32 IDs per row,
// and the recording proxy (internal/proxy) interns host names at record
// time so half a million flows do not hold half a million copies of one
// host. Header strings need no table of their own: the recorder shares
// whole header blocks, one read-only map per distinct block.
//
// Determinism contract: IDs are assigned in first-occurrence order of the
// insertion sequence, and merging chunk-local tables (chunks taken in
// order) reproduces exactly the table a serial scan of the concatenated
// sequence would build. Chunked parallel interning is therefore
// indistinguishable from serial interning — the property the store
// package's FuzzInternRoundTrip exercises.
package intern

// Strings is a dense string-intern table: each distinct string gets the
// next int32 ID in first-insertion order. The zero value is not usable;
// call NewStrings.
type Strings struct {
	ids  map[string]int32
	strs []string
}

// NewStrings returns an empty intern table with capacity for n strings.
func NewStrings(n int) *Strings {
	return &Strings{ids: make(map[string]int32, n), strs: make([]string, 0, n)}
}

// Intern returns the ID of s, assigning the next dense ID on first sight.
func (t *Strings) Intern(s string) int32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := int32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// InternBytes is Intern for a byte-slice key. The lookup does not allocate;
// the string copy is made only on first sight.
func (t *Strings) InternBytes(b []byte) int32 {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	s := string(b)
	id := int32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// Canon returns the canonical (first-interned) instance of s, interning it
// on first sight. Callers use it to share one backing copy of a string that
// is re-created per record (header names, hosts, content types).
func (t *Strings) Canon(s string) string {
	return t.strs[t.Intern(s)]
}

// Lookup returns the ID of s without interning it.
func (t *Strings) Lookup(s string) (int32, bool) {
	id, ok := t.ids[s]
	return id, ok
}

// String resolves an ID back to its string. IDs outside [0, Len) return "".
func (t *Strings) String(id int32) string {
	if id < 0 || int(id) >= len(t.strs) {
		return ""
	}
	return t.strs[id]
}

// Len returns the number of distinct interned strings.
func (t *Strings) Len() int { return len(t.strs) }

// All returns the interned strings in ID order. The slice is the table's
// backing storage — treat it as read-only.
func (t *Strings) All() []string { return t.strs }

// MergeStrings stitches chunk-local tables into one global table and
// returns, per chunk, the local-ID -> global-ID remap. Locals are merged in
// slice order with their internal insertion order preserved, which makes
// the global ID assignment identical to serially interning the chunks'
// underlying sequences back to back: a string's global ID is determined by
// its first occurrence, wherever that fell.
func MergeStrings(locals []*Strings) (*Strings, [][]int32) {
	total := 0
	for _, l := range locals {
		total += l.Len()
	}
	global := NewStrings(total)
	return global, global.Absorb(locals)
}

// Absorb merges chunk-local tables into t (which may already hold seeded
// entries — e.g. the channel table pre-populated from dataset metadata)
// and returns the per-chunk local-ID -> global-ID remaps. The determinism
// argument of MergeStrings applies unchanged: seeded entries keep their
// IDs, and unseen strings get dense IDs in chunk-order first occurrence.
func (t *Strings) Absorb(locals []*Strings) [][]int32 {
	remaps := make([][]int32, len(locals))
	for ci, l := range locals {
		remap := make([]int32, l.Len())
		for localID, s := range l.strs {
			remap[localID] = t.Intern(s)
		}
		remaps[ci] = remap
	}
	return remaps
}
