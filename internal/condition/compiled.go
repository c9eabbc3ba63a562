package condition

import (
	"fmt"
	"math/bits"
	"sort"

	"kset/internal/kerr"
	"kset/internal/vector"
)

// Indexed is implemented by condition representations that expose their
// members by position without copying: Explicit and Compiled. Positional
// access is what lets the legality checker, the recognizer search and the
// streaming layer walk a condition with zero per-member allocation. The
// vectors and sets returned by the accessors are the condition's own
// storage and must be treated as read-only.
type Indexed interface {
	Condition
	// Size returns the number of member vectors.
	Size() int
	// MemberAt returns member k (0 ≤ k < Size()), in insertion order.
	MemberAt(k int) vector.Vector
	// RecognizedAt returns h(MemberAt(k)).
	RecognizedAt(k int) vector.Set
}

// hashMul scrambles packed vector keys for the open-addressing table
// (Fibonacci hashing: the high bits of key·2⁶⁴/φ are well mixed).
const hashMul = 0x9e3779b97f4a7c15

// Compiled is the immutable, index-backed form of an enumerated condition.
// Compile an Explicit (or use CompileMax/CompileMin) once, then every
// Contains/Recognize/Lookup probe is one open-addressing lookup over the
// packed vector.Key64 keys — no string hashing, no map iteration, no
// allocation — and the per-member count and densest-mass tables answer the
// mass queries of legality checking and recognizer search in O(|set|)
// instead of O(n).
//
// A Compiled condition is a snapshot: it shares nothing with the Explicit
// it was compiled from, and it cannot be modified. That immutability is
// what makes it safe to share across campaign workers without locks.
type Compiled struct {
	n, m, l int

	flat []vector.Value // member k is flat[k*n : (k+1)*n]
	hs   []vector.Set   // h(member k)
	vals []vector.Set   // val(member k)

	// Membership index over the packable members: skeys holds their packed
	// keys in ascending order (Key64 packing is order-preserving, so this
	// is also the lexicographic member order), sidx maps a sorted position
	// back to the member index, and slots is the open-addressing table
	// from hashed key to sorted position (−1 = empty).
	skeys []uint64
	sidx  []int32
	slots []int32
	shift uint

	// strIdx indexes the members whose vectors do not pack into a Key64
	// (n > 10 or a value > 63); nil when every member packs.
	strIdx map[string]int

	// Per-member analysis tables: counts[k*(m+1)+v] = #_v(I_k), and
	// densest[dOff[k]+j] = the total mass of the j+1 most frequent values
	// of I_k (prefix sums of its value counts sorted descending).
	counts  []uint16
	densest []uint16
	dOff    []int32
}

var (
	_ Indexed     = (*Compiled)(nil)
	_ ViewDecoder = (*Compiled)(nil)
)

// Builder accumulates validated (vector, recognized set) pairs and
// compiles them into a Compiled condition. It maintains the membership
// index incrementally, so Add detects duplicates with the same contract as
// Explicit.Add. A Builder must not be used after Compile.
type Builder struct {
	n, m, l int
	flat    []vector.Value
	hs      []vector.Set
	keys    []uint64 // packed key of member k; 0 = not packable
	slots   []int32  // build-time open addressing: member index or −1
	shift   uint
	strIdx  map[string]int
}

// NewBuilder returns an empty Builder for a condition over {1..m}^n with
// parameter ℓ, rejecting the same out-of-range parameterizations as
// NewExplicit.
func NewBuilder(n, m, l int) (*Builder, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("condition: builder: n=%d, want ≥ 1: %w", n, kerr.ErrBadParams)
	case m < 1:
		return nil, fmt.Errorf("condition: builder: m=%d, want ≥ 1: %w", m, kerr.ErrBadParams)
	case m > int(vector.MaxSetValue):
		return nil, fmt.Errorf("condition: builder: m=%d exceeds the cap %d: %w", m, vector.MaxSetValue, kerr.ErrDomainTooLarge)
	case l < 1:
		return nil, fmt.Errorf("condition: builder: ℓ=%d, want ≥ 1: %w", l, kerr.ErrBadParams)
	}
	return &Builder{n: n, m: m, l: l}, nil
}

// MustNewBuilder is NewBuilder that panics on error; for fixed
// constructions whose parameters are known good.
func MustNewBuilder(n, m, l int) *Builder {
	b, err := NewBuilder(n, m, l)
	if err != nil {
		panic(err)
	}
	return b
}

// Size returns the number of members added so far.
func (b *Builder) Size() int { return len(b.hs) }

// Add appends vector i with recognized set h, copying i into the builder's
// flat storage. It enforces the same contract as Explicit.Add: wrong size,
// out-of-domain or ⊥ entries, and validity-violating h are errors;
// re-adding a vector is a no-op with the same h and an error with a
// different one.
func (b *Builder) Add(i vector.Vector, h vector.Set) error {
	if len(i) != b.n {
		return fmt.Errorf("condition: vector %v has size %d, want %d", i, len(i), b.n)
	}
	for _, v := range i {
		if !v.IsProposable() || v > vector.Value(b.m) {
			return fmt.Errorf("condition: vector %v has value %v outside {1..%d}", i, v, b.m)
		}
	}
	want := b.l
	if nv := i.Vals().Len(); nv < want {
		want = nv
	}
	if h.Len() != want || !h.SubsetOf(i.Vals()) {
		return fmt.Errorf("condition: h=%v violates (x,%d)-validity for %v", h, b.l, i)
	}
	if idx, ok := b.indexOf(i); ok {
		if !b.hs[idx].Equal(h) {
			return fmt.Errorf("condition: vector %v already present with h=%v", i, b.hs[idx])
		}
		return nil
	}
	idx := len(b.hs)
	b.flat = append(b.flat, i...)
	b.hs = append(b.hs, h)
	if key, ok := i.Key64(); ok {
		b.keys = append(b.keys, key)
		b.insertKey(key, idx)
	} else {
		b.keys = append(b.keys, 0)
		if b.strIdx == nil {
			b.strIdx = make(map[string]int)
		}
		b.strIdx[i.Key()] = idx
	}
	return nil
}

// MustAdd is Add that panics on error; for fixed constructions.
func (b *Builder) MustAdd(i vector.Vector, h vector.Set) {
	if err := b.Add(i, h); err != nil {
		panic(err)
	}
}

// indexOf finds the member index of i in the build-time index.
func (b *Builder) indexOf(i vector.Vector) (int, bool) {
	if key, ok := i.Key64(); ok {
		if len(b.slots) == 0 {
			return 0, false
		}
		mask := uint64(len(b.slots) - 1)
		for s := (key * hashMul) >> b.shift; ; s = (s + 1) & mask {
			idx := b.slots[s]
			if idx < 0 {
				return 0, false
			}
			if b.keys[idx] == key {
				return int(idx), true
			}
		}
	}
	idx, ok := b.strIdx[i.Key()]
	return idx, ok
}

// insertKey adds one packed key to the build-time table, growing it to
// keep the load factor at or below 1/2.
func (b *Builder) insertKey(key uint64, idx int) {
	if 2*(len(b.hs)+1) > len(b.slots) {
		b.grow()
	}
	mask := uint64(len(b.slots) - 1)
	s := (key * hashMul) >> b.shift
	for b.slots[s] >= 0 {
		s = (s + 1) & mask
	}
	b.slots[s] = int32(idx)
}

// grow doubles the build-time table and rehashes the packable members.
func (b *Builder) grow() {
	size := 8
	for size < 4*(len(b.hs)+1) {
		size <<= 1
	}
	b.slots = make([]int32, size)
	for s := range b.slots {
		b.slots[s] = -1
	}
	b.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for idx, key := range b.keys {
		if key == 0 {
			continue
		}
		s := (key * hashMul) >> b.shift
		for b.slots[s] >= 0 {
			s = (s + 1) & mask
		}
		b.slots[s] = int32(idx)
	}
}

// Compile freezes the builder into an immutable Compiled condition:
// members keep their insertion order, the packed keys are sorted into the
// final probe array, and the per-member count and densest-mass tables are
// precomputed. The builder must not be used afterwards (the compiled
// condition takes ownership of its storage).
func (b *Builder) Compile() *Compiled {
	size := len(b.hs)
	c := &Compiled{
		n: b.n, m: b.m, l: b.l,
		flat:   b.flat,
		hs:     b.hs,
		strIdx: b.strIdx,
	}

	// Sorted key array over the packable members, and the open-addressing
	// table over sorted positions.
	npack := 0
	for _, key := range b.keys {
		if key != 0 {
			npack++
		}
	}
	c.sidx = make([]int32, 0, npack)
	for idx, key := range b.keys {
		if key != 0 {
			c.sidx = append(c.sidx, int32(idx))
		}
	}
	sort.Slice(c.sidx, func(a, z int) bool { return b.keys[c.sidx[a]] < b.keys[c.sidx[z]] })
	c.skeys = make([]uint64, npack)
	for pos, idx := range c.sidx {
		c.skeys[pos] = b.keys[idx]
	}
	tsize := 8
	for tsize < 2*npack {
		tsize <<= 1
	}
	c.slots = make([]int32, tsize)
	for s := range c.slots {
		c.slots[s] = -1
	}
	c.shift = uint(64 - bits.TrailingZeros(uint(tsize)))
	mask := uint64(tsize - 1)
	for pos, key := range c.skeys {
		s := (key * hashMul) >> c.shift
		for c.slots[s] >= 0 {
			s = (s + 1) & mask
		}
		c.slots[s] = int32(pos)
	}

	// Per-member tables: value sets, counts, and densest-mass prefixes.
	c.vals = make([]vector.Set, size)
	c.counts = make([]uint16, size*(b.m+1))
	c.dOff = make([]int32, size+1)
	var desc []uint16
	for k := 0; k < size; k++ {
		i := c.MemberAt(k)
		c.vals[k] = i.Vals()
		row := c.counts[k*(b.m+1) : (k+1)*(b.m+1)]
		for _, v := range i {
			row[v]++
		}
		desc = desc[:0]
		for v := 1; v <= b.m; v++ {
			if row[v] > 0 {
				desc = append(desc, row[v])
			}
		}
		sort.Slice(desc, func(a, z int) bool { return desc[a] > desc[z] })
		c.dOff[k] = int32(len(c.densest))
		sum := uint16(0)
		for _, cnt := range desc {
			sum += cnt
			c.densest = append(c.densest, sum)
		}
	}
	c.dOff[size] = int32(len(c.densest))
	return c
}

// Compile builds the immutable compiled index of an explicit condition.
// The result is a snapshot: vectors added to e afterwards are not
// reflected. kset.System compiles its explicit condition at construction,
// so campaign membership checks and member streaming ride the index.
func Compile(e *Explicit) *Compiled {
	b := MustNewBuilder(e.n, e.m, e.l)
	for k := range e.vecs {
		b.MustAdd(e.vecs[k], e.hs[k])
	}
	return b.Compile()
}

// CompileMax materializes the max_ℓ-generated (x,ℓ)-legal condition of
// NewMax as a compiled condition by enumerating {1..m}^n — the
// analysis-side form used by the lattice builders, practical at small n
// and m only (the enumeration is m^n; the analytic MaxCondition remains
// the right form for protocol runs at scale).
func CompileMax(n, m, x, l int) (*Compiled, error) {
	if _, err := NewMax(n, m, x, l); err != nil {
		return nil, err
	}
	b := MustNewBuilder(n, m, l)
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if top := i.TopL(l); i.MassOf(top) > x {
			b.MustAdd(i, top)
		}
		return true
	})
	return b.Compile(), nil
}

// MustCompileMax is CompileMax that panics on error.
func MustCompileMax(n, m, x, l int) *Compiled {
	c, err := CompileMax(n, m, x, l)
	if err != nil {
		panic(err)
	}
	return c
}

// CompileMin is the min_ℓ twin of CompileMax: it materializes the
// min_ℓ-generated (x,ℓ)-legal condition of NewMin as a compiled condition.
func CompileMin(n, m, x, l int) (*Compiled, error) {
	if _, err := NewMin(n, m, x, l); err != nil {
		return nil, err
	}
	b := MustNewBuilder(n, m, l)
	vector.ForEach(n, m, func(i vector.Vector) bool {
		if bot := i.BottomL(l); i.MassOf(bot) > x {
			b.MustAdd(i, bot)
		}
		return true
	})
	return b.Compile(), nil
}

// MustCompileMin is CompileMin that panics on error.
func MustCompileMin(n, m, x, l int) *Compiled {
	c, err := CompileMin(n, m, x, l)
	if err != nil {
		panic(err)
	}
	return c
}

// N implements Condition.
func (c *Compiled) N() int { return c.n }

// M implements Condition.
func (c *Compiled) M() int { return c.m }

// L implements Condition.
func (c *Compiled) L() int { return c.l }

// Size implements Indexed.
func (c *Compiled) Size() int { return len(c.hs) }

// MemberAt implements Indexed: member k as a read-only view into the
// condition's flat storage (zero-copy; do not mutate).
func (c *Compiled) MemberAt(k int) vector.Vector {
	return vector.Vector(c.flat[k*c.n : (k+1)*c.n : (k+1)*c.n])
}

// RecognizedAt implements Indexed.
func (c *Compiled) RecognizedAt(k int) vector.Set { return c.hs[k] }

// ValsAt returns val(MemberAt(k)) from the precomputed table.
func (c *Compiled) ValsAt(k int) vector.Set { return c.vals[k] }

// IndexOf returns the member index of i, probing the open-addressing
// table over packed keys (one multiply, a shift and a near-always-single
// probe) or the string-key fallback for vectors that do not pack. It never
// allocates on the packed path.
func (c *Compiled) IndexOf(i vector.Vector) (int, bool) {
	if len(i) != c.n {
		return 0, false
	}
	if key, ok := i.Key64(); ok {
		return c.probe(key)
	}
	idx, ok := c.strIdx[i.Key()]
	return idx, ok
}

// probe looks a packed key up in the open-addressing table and returns
// the member index it belongs to.
func (c *Compiled) probe(key uint64) (int, bool) {
	if len(c.skeys) == 0 {
		return 0, false
	}
	mask := uint64(len(c.slots) - 1)
	for s := (key * hashMul) >> c.shift; ; s = (s + 1) & mask {
		pos := c.slots[s]
		if pos < 0 {
			return 0, false
		}
		if c.skeys[pos] == key {
			return int(c.sidx[pos]), true
		}
	}
}

// DecodeView implements ViewDecoder: the Definition-4 decoding of DecodeView
// walked directly on packed keys. J packs with ⊥ = 0, so each completion's
// key is J's key plus digit·2^(6·pos) for each hole's digit 1..m, where pos
// counts entries from the right; the walk steps an odometer over the hole
// digits (last hole fastest) and probes the table once per completion,
// with no vector, closure or allocation. Views that do not pack (n > 10,
// an entry above 63) and domains reaching 64 take DecodeViewGeneric.
func (c *Compiled) DecodeView(j vector.Vector) (vector.Set, bool) {
	if len(j) != c.n {
		return vector.Set{}, false // no member contains a view of another size
	}
	key, ok := j.Key64()
	if !ok || c.m > 63 {
		return DecodeViewGeneric(c, j)
	}
	var shift [10]uint   // bit offset of each hole's digit in the key
	var digit [10]uint64 // each hole's current digit, 1..m
	holes := 0
	for i, v := range j {
		if v == vector.Bottom {
			shift[holes] = uint(6 * (len(j) - 1 - i))
			digit[holes] = 1
			key += 1 << shift[holes]
			holes++
		}
	}
	var acc vector.Set
	found := false
	for {
		if idx, ok := c.probe(key); ok {
			if !found {
				acc, found = c.hs[idx], true
			} else {
				acc = acc.Intersect(c.hs[idx])
			}
			// The intersection only shrinks; once empty it stays empty.
			if acc.Empty() {
				break
			}
		}
		h := holes - 1
		for ; h >= 0; h-- {
			if digit[h] < uint64(c.m) {
				digit[h]++
				key += 1 << shift[h]
				break
			}
			key -= (digit[h] - 1) << shift[h]
			digit[h] = 1
		}
		if h < 0 {
			break
		}
	}
	if !found {
		return vector.Set{}, false
	}
	return acc.Intersect(j.Vals()), true
}

// Contains implements Condition via one IndexOf probe.
func (c *Compiled) Contains(i vector.Vector) bool {
	_, ok := c.IndexOf(i)
	return ok
}

// Recognize implements Condition via one IndexOf probe.
func (c *Compiled) Recognize(i vector.Vector) vector.Set {
	if idx, ok := c.IndexOf(i); ok {
		return c.hs[idx]
	}
	return vector.Set{}
}

// Lookup returns h(i) and whether i is a member, in a single probe — the
// fused Contains+Recognize the view decoder uses per completion.
func (c *Compiled) Lookup(i vector.Vector) (vector.Set, bool) {
	if idx, ok := c.IndexOf(i); ok {
		return c.hs[idx], true
	}
	return vector.Set{}, false
}

// ForEachMember implements Condition with a zero-copy iteration over the
// flat member storage, in insertion order. The yielded vectors are the
// condition's own storage: Clone to retain or mutate.
func (c *Compiled) ForEachMember(fn func(vector.Vector) bool) {
	for k := 0; k < len(c.hs); k++ {
		if !fn(c.MemberAt(k)) {
			return
		}
	}
}

// Members returns an independent deep copy of the member vectors, in
// insertion order — the safe counterpart of the Indexed accessors for
// callers that want to keep or mutate the vectors.
func (c *Compiled) Members() []vector.Vector {
	out := make([]vector.Vector, len(c.hs))
	for k := range out {
		out[k] = c.MemberAt(k).Clone()
	}
	return out
}

// Count returns #_v(I_k) from the precomputed count table.
func (c *Compiled) Count(k int, v vector.Value) int {
	if v < 1 || int(v) > c.m {
		return 0
	}
	return int(c.counts[k*(c.m+1)+int(v)])
}

// Mass returns Σ_{v∈s} #_v(I_k) — the density/distance mass of member k
// against the value set s — in O(|s|) table lookups instead of an O(n)
// vector scan, with no allocation. Values of s beyond the condition's
// domain {1..m} contribute nothing (a set may hold values up to 64).
func (c *Compiled) Mass(k int, s vector.Set) int {
	row := c.counts[k*(c.m+1) : (k+1)*(c.m+1)]
	mass := 0
	s.ForEach(func(v vector.Value) bool {
		if int(v) <= c.m {
			mass += int(row[v])
		}
		return true
	})
	return mass
}

// DensestMass returns the largest total number of entries of member k
// occupied by at most l distinct values (the sum of its l largest value
// counts), read from the precomputed prefix table. The Theorem 5/7
// constructions bound it to rule out recognizers.
func (c *Compiled) DensestMass(k, l int) int {
	off, end := int(c.dOff[k]), int(c.dOff[k+1])
	if l <= 0 || off == end {
		return 0
	}
	if j := off + l; j < end {
		end = j
	}
	return int(c.densest[end-1])
}
