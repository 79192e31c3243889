package history

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neat/internal/clock"
)

// RegisterSpec parameterizes the register linearizability checker.
// Zero values select the canonical kinds.
type RegisterSpec struct {
	// WriteKind sets the register to Input ("put").
	WriteKind string
	// DeleteKind sets the register to absent ("del").
	DeleteKind string
	// ReadKind observes the register ("get"); an Ok read with
	// MissingNote observed absence.
	ReadKind string
	// MissingNote marks an Ok read that found no value ("missing").
	MissingNote string
}

func (s *RegisterSpec) defaults() {
	if s.WriteKind == "" {
		s.WriteKind = "put"
	}
	if s.DeleteKind == "" {
		s.DeleteKind = "del"
	}
	if s.ReadKind == "" {
		s.ReadKind = "get"
	}
	if s.MissingNote == "" {
		s.MissingNote = "missing"
	}
}

// Registers returns the key-partitioned register linearizability
// check: each key is an independent register, judged by a Wing & Gong
// search over the permutations of its operations that respect
// real-time order, with memoized visited-state deduplication so the
// search stays fast at campaign throughput.
//
// Outcome semantics:
//
//   - Ok writes took effect somewhere inside their invocation window
//     and must be explainable by every read.
//   - Failed writes never took effect; a read observing one is a
//     "dirty-read" violation (the value escaped a definitive refusal).
//   - Ambiguous writes may have taken effect at any point at or after
//     their invocation — or never. The search treats them as optional
//     with an open-ended window. (A visible ambiguous write is not a
//     linearizability violation; SilentWrites reports those.)
//   - Only Ok reads constrain the search; failed reads observed
//     nothing.
//
// A history that cannot be linearized yields a "durability" violation
// per offending read: an acknowledged write was lost, rolled back, or
// reordered out of existence. Every violation carries a witness trace.
func Registers(spec RegisterSpec) Check {
	spec.defaults()
	return func(h History) []Violation {
		keys := h.Keys(spec.WriteKind, spec.DeleteKind, spec.ReadKind)
		var out []Violation
		for _, vs := range checkRegistersParallel(spec, h, keys) {
			out = append(out, vs...)
		}
		return out
	}
}

// parallelCheckMinOps gates the parallel per-key fan-out: below this
// many recorded operations the goroutine handoff costs more than the
// search itself.
const parallelCheckMinOps = 64

// checkRegistersParallel runs the per-key register checks across up to
// GOMAXPROCS workers and returns the results slotted by key index, so
// the merged violation order is always the key-appearance order
// regardless of which worker finished first — the determinism
// contract. The workers are pure computation over an already-recorded
// history and never touch a clock, so they run as plain unaccounted
// goroutines via clock.Go with the real clock (which carries no busy
// accounting to bind them to).
func checkRegistersParallel(spec RegisterSpec, h History, keys []string) [][]Violation {
	out := make([][]Violation, len(keys))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers <= 1 || len(h) < parallelCheckMinOps {
		for i, key := range keys {
			out[i] = checkRegister(spec, key, h.ForKey(key))
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//neat:allow checkerpurity -- pure per-key fan-out on clock.Real{} (no busy accounting); slotted output keeps merge order deterministic
		clock.Go(clock.Real{}, func(*clock.Scope) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				out[i] = checkRegister(spec, keys[i], h.ForKey(keys[i]))
			}
		})
	}
	wg.Wait()
	return out
}

// regItem is one searchable event of a register's history.
type regItem struct {
	op       Op
	read     bool
	val      string // written or observed value
	absent   bool   // delete-write or missing-read
	optional bool   // ambiguous write: may never take effect
	inv, ret time.Duration
}

const infDur = time.Duration(math.MaxInt64)

func checkRegister(spec RegisterSpec, key string, h History) []Violation {
	// Exact-size the item slices: per-key slice churn is the checker's
	// dominant allocation source at campaign throughput.
	nw, nr := 0, 0
	for i := range h {
		switch h[i].Kind {
		case spec.WriteKind, spec.DeleteKind:
			nw++
		case spec.ReadKind:
			nr++
		}
	}
	writes := make([]regItem, 0, nw)
	reads := make([]regItem, 0, nr)
	// failedWrites maps a definitively refused value to its op, for
	// dirty-read witnesses. Built lazily: most histories have none.
	var failedWrites map[string]Op
	for _, op := range h {
		switch op.Kind {
		case spec.WriteKind, spec.DeleteKind:
			it := regItem{op: op, val: op.Input, absent: op.Kind == spec.DeleteKind, inv: op.Invoke, ret: op.Return}
			switch op.Outcome {
			case Ok:
				writes = append(writes, it)
			case Ambiguous:
				it.optional = true
				it.ret = infDur
				writes = append(writes, it)
			default:
				if !it.absent {
					if failedWrites == nil {
						failedWrites = make(map[string]Op)
					}
					failedWrites[op.Input] = op
				}
			}
		case spec.ReadKind:
			if op.Outcome != Ok {
				continue
			}
			it := regItem{op: op, read: true, val: op.Output, absent: op.Note == spec.MissingNote, inv: op.Invoke, ret: op.Return}
			reads = append(reads, it)
		}
	}
	var out []Violation

	// Dirty pass: a read observing a value no Ok or Ambiguous write
	// ever wrote cannot be linearized at all — either the value leaked
	// out of a definitively failed write or it was fabricated. Judged
	// first and removed so the search below only arbitrates ordering.
	// A linear scan over the writes replaces a written-values map: the
	// per-key write count is small and the scan allocates nothing.
	written := func(val string) bool {
		for i := range writes {
			if !writes[i].absent && writes[i].val == val {
				return true
			}
		}
		return false
	}
	clean := reads[:0]
	for _, r := range reads {
		if r.absent || written(r.val) {
			clean = append(clean, r)
			continue
		}
		wops := []Op{r.op}
		detail := fmt.Sprintf("read %q, a value no acknowledged or ambiguous write produced", r.val)
		if w, ok := failedWrites[r.val]; ok {
			wops = append(wops, w)
			detail = fmt.Sprintf("read %q, written by op #%d that was definitively refused (%s)", r.val, w.Index, w.Outcome)
		}
		out = append(out, Violation{
			Invariant: "dirty-read",
			Subject:   key,
			Detail:    detail,
			Witness:   witness(wops...),
		})
	}
	reads = clean

	// Linearizability search. When the full history fails, the first
	// read (in invocation order) whose inclusion breaks it is the
	// offender: an acknowledged write it should have observed was
	// lost or rolled back. Offenders are reported and excluded, then
	// the search continues, so several independent stale reads each
	// get a violation.
	if linearizable(writes, reads) {
		return out
	}
	var kept []regItem
	for _, r := range reads {
		if linearizable(writes, append(kept[:len(kept):len(kept)], r)) {
			kept = append(kept, r)
			continue
		}
		out = append(out, staleReadViolation(key, writes, r))
	}
	return out
}

// staleReadViolation describes a read that cannot be reconciled with
// the acknowledged writes: the freshest write that completed before
// the read began should have been visible (or superseded by a newer
// value), yet the read observed older or absent state.
func staleReadViolation(key string, writes []regItem, r regItem) Violation {
	wops := []Op{r.op}
	// The newest acknowledged write that returned before the read
	// began: its effect was guaranteed stable when the read started.
	var newest *regItem
	for i := range writes {
		w := &writes[i]
		if w.optional || w.ret > r.inv {
			continue
		}
		if newest == nil || w.op.Index > newest.op.Index {
			newest = w
		}
	}
	observed := fmt.Sprintf("%q", r.val)
	if r.absent {
		observed = "no value"
	}
	detail := fmt.Sprintf("read observed %s, which cannot be linearized against the acknowledged writes", observed)
	if newest != nil {
		wops = append(wops, newest.op)
		detail = fmt.Sprintf("read observed %s after write %q (#%d) was acknowledged — the write was lost or rolled back",
			observed, newest.val, newest.op.Index)
	}
	// The write that produced the stale value, when identifiable.
	for i := range writes {
		if !r.absent && writes[i].val == r.val {
			wops = append(wops, writes[i].op)
			break
		}
	}
	return Violation{Invariant: "durability", Subject: key, Detail: detail, Witness: witness(wops...)}
}

// linearizable runs the Wing & Gong membership search: is there a
// total order of the items, respecting real-time precedence, under
// which every read observes the latest preceding write? Ambiguous
// (optional) writes may be omitted — "never applied" is a legal
// explanation for them. Visited states are memoized on the
// (linearized-set, register-value) pair, which collapses the
// exponential search to the number of distinct reachable states.
//
// The memo key is allocation-free: register values are interned to
// small integer ids up front (0 = absent), so a state is the
// fixed-width pair (bitmask, value id). Histories of at most 128
// items — every campaign-scale per-key history — use a comparable
// struct key in a map[regState]struct{} with value-type states, which
// allocates nothing per visited state beyond the map's own growth.
// Longer histories fall back to a width-generic search whose keys are
// fixed-width binary encodings built in a reused buffer (lookups
// convert without allocating; only inserts copy) and whose masks come
// from a free list, so allocations stay bounded by the search depth,
// not the state count.
func linearizable(writes, reads []regItem) bool {
	n := len(writes) + len(reads)
	if n == 0 {
		return true
	}
	items := make([]regItem, 0, n)
	items = append(items, writes...)
	items = append(items, reads...)

	// Intern register values: states then compare by a fixed-width id
	// instead of a string. Id 0 is the absent register.
	valID := make(map[string]int32, n)
	ids := make([]int32, n)
	for i := range items {
		if items[i].absent {
			continue
		}
		id, ok := valID[items[i].val]
		if !ok {
			id = int32(len(valID)) + 1
			valID[items[i].val] = id
		}
		ids[i] = id
	}
	if n <= 128 {
		return linearizableNarrow(items, ids)
	}
	return linearizableWide(items, ids)
}

// regState is the memo key of the narrow (≤128 item) search: the
// linearized-set bitmask and the interned register value (0 = absent).
type regState struct {
	m0, m1 uint64
	val    int32
}

func (s *regState) has(i int) bool {
	if i < 64 {
		return s.m0&(1<<uint(i)) != 0
	}
	return s.m1&(1<<uint(i-64)) != 0
}

func (s *regState) set(i int) {
	if i < 64 {
		s.m0 |= 1 << uint(i)
	} else {
		s.m1 |= 1 << uint(i-64)
	}
}

func linearizableNarrow(items []regItem, ids []int32) bool {
	n := len(items)
	// required holds the non-optional items; a state is complete when
	// its mask covers it.
	var required regState
	for i := range items {
		if !items[i].optional {
			required.set(i)
		}
	}
	visited := make(map[regState]struct{}, 4*n)
	var dfs func(s regState) bool
	dfs = func(s regState) bool {
		// Greedily linearize every eligible read that matches the
		// current register: a read has no effect on the value, and
		// removing it from the pending set only relaxes the precedence
		// constraint on everything else, so taking it first loses no
		// solutions. This collapses the branching to writes only.
		// minRet is the real-time precedence bound: an item may be
		// linearized next only if no pending item returned before it
		// was invoked.
		minRet := infDur
		for {
			minRet = infDur
			for i := 0; i < n; i++ {
				if !s.has(i) && items[i].ret < minRet {
					minRet = items[i].ret
				}
			}
			folded := false
			for i := 0; i < n; i++ {
				if !s.has(i) && items[i].read && ids[i] == s.val && items[i].inv <= minRet {
					s.set(i)
					folded = true
				}
			}
			if !folded {
				break
			}
		}
		if s.m0&required.m0 == required.m0 && s.m1&required.m1 == required.m1 {
			return true
		}
		if _, seen := visited[s]; seen {
			return false
		}
		visited[s] = struct{}{}
		for i := 0; i < n; i++ {
			if s.has(i) {
				continue
			}
			it := &items[i]
			if it.read || it.inv > minRet {
				continue
			}
			next := s
			next.set(i)
			next.val = ids[i]
			if dfs(next) {
				return true
			}
		}
		return false
	}
	return dfs(regState{})
}

func linearizableWide(items []regItem, ids []int32) bool {
	n := len(items)
	words := (n + 63) / 64
	required := make([]uint64, words)
	for i := range items {
		if !items[i].optional {
			required[i/64] |= 1 << uint(i%64)
		}
	}
	full := func(mask []uint64) bool {
		for w := range mask {
			if mask[w]&required[w] != required[w] {
				return false
			}
		}
		return true
	}
	keyBuf := make([]byte, words*8+4)
	encode := func(mask []uint64, val int32) []byte {
		for w, m := range mask {
			binary.LittleEndian.PutUint64(keyBuf[w*8:], m)
		}
		binary.LittleEndian.PutUint32(keyBuf[words*8:], uint32(val))
		return keyBuf
	}
	visited := make(map[string]struct{}, 4*n)
	// Masks live only on the recursion path, so a free list caps their
	// allocations at the search depth.
	var free [][]uint64
	copyMask := func(src []uint64) []uint64 {
		if k := len(free); k > 0 {
			m := free[k-1]
			free = free[:k-1]
			copy(m, src)
			return m
		}
		return append(make([]uint64, 0, words), src...)
	}
	var dfs func(mask []uint64, val int32) bool
	dfs = func(mask []uint64, val int32) bool {
		// Greedy read folding, as in the narrow search: eligible
		// matching reads are linearized immediately (sound, see
		// linearizableNarrow), leaving only writes to branch on.
		minRet := infDur
		for {
			minRet = infDur
			for i := 0; i < n; i++ {
				if mask[i/64]&(1<<uint(i%64)) == 0 && items[i].ret < minRet {
					minRet = items[i].ret
				}
			}
			folded := false
			for i := 0; i < n; i++ {
				if mask[i/64]&(1<<uint(i%64)) == 0 && items[i].read && ids[i] == val && items[i].inv <= minRet {
					mask[i/64] |= 1 << uint(i%64)
					folded = true
				}
			}
			if !folded {
				break
			}
		}
		if full(mask) {
			return true
		}
		k := encode(mask, val)
		if _, seen := visited[string(k)]; seen {
			return false
		}
		visited[string(k)] = struct{}{}
		for i := 0; i < n; i++ {
			if mask[i/64]&(1<<uint(i%64)) != 0 {
				continue
			}
			it := &items[i]
			if it.read || it.inv > minRet {
				continue
			}
			next := copyMask(mask)
			next[i/64] |= 1 << uint(i%64)
			ok := dfs(next, ids[i])
			free = append(free, next)
			if ok {
				return true
			}
		}
		return false
	}
	return dfs(make([]uint64, words), 0)
}
