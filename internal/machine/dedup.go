package machine

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"compass/internal/memory"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// DefaultDedupCap is the visited-set entry cap when NewDedup is given a
// non-positive one. At 40 bytes of map+list overhead per 16-byte key this
// bounds the set near 64 MiB — large enough that the litmus and library
// corpora never evict (evictions make run counts order-dependent; see
// Dedup.CheckAndMark).
const DefaultDedupCap = 1 << 20

// fingerprintLen is the visited-set key width: the first 16 bytes of a
// SHA-256 over the canonical state encoding. 128 bits keeps the
// accidental-collision probability below 2^-88 even at a billion states,
// and a collision is the only way dedup could unsoundly cut a subtree —
// canonicalization collisions are by construction isomorphic states.
const fingerprintLen = 16

// Fingerprint is a canonical state digest used as a visited-set key.
type Fingerprint [fingerprintLen]byte

// fingerprintOf digests one canonical state encoding.
func fingerprintOf(canon []byte) Fingerprint {
	sum := sha256.Sum256(canon)
	var fp Fingerprint
	copy(fp[:], sum[:fingerprintLen])
	return fp
}

// Dedup is a bounded set of canonical state fingerprints shared by the
// runs of one exhaustive exploration. The first run to reach a state
// claims its fingerprint and explores the subtree; every later arrival
// is cut short as Deduped. Bounded: at the cap the least-recently-hit
// fingerprint is evicted (counted in telemetry), after which its state
// can be claimed — and its subtree explored — again. That never loses
// outcomes, only pruning.
//
// Safe for concurrent use by the parallel explorer's workers.
type Dedup struct {
	mu  sync.Mutex
	cap int
	m   map[Fingerprint]*list.Element
	lru *list.List // front = most recently hit; values are Fingerprint
}

// NewDedup returns an empty visited set holding at most cap fingerprints
// (DefaultDedupCap if cap <= 0).
func NewDedup(cap int) *Dedup {
	if cap <= 0 {
		cap = DefaultDedupCap
	}
	return &Dedup{
		cap: cap,
		m:   make(map[Fingerprint]*list.Element),
		lru: list.New(),
	}
}

// Cap returns the entry cap.
func (d *Dedup) Cap() int { return d.cap }

// Len returns the current entry count.
func (d *Dedup) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lru.Len()
}

// checkAndMark claims the fingerprint of the given canonical encoding.
// It returns true when the fingerprint was already present (the caller's
// state is a duplicate and its subtree must be cut), false when this
// caller claimed it first. Hits refresh LRU position; first claims may
// evict the coldest entry.
func (d *Dedup) checkAndMark(canon []byte, stats *telemetry.Stats) bool {
	fp := fingerprintOf(canon)
	d.mu.Lock()
	if el, ok := d.m[fp]; ok {
		d.lru.MoveToFront(el)
		d.mu.Unlock()
		stats.DedupHit()
		return true
	}
	d.m[fp] = d.lru.PushFront(fp)
	evicted := false
	if d.lru.Len() > d.cap {
		back := d.lru.Back()
		delete(d.m, back.Value.(Fingerprint))
		d.lru.Remove(back)
		evicted = true
	}
	d.mu.Unlock()
	stats.DedupMiss()
	if evicted {
		stats.DedupEvicted()
	}
	return false
}

// freeDecider is implemented by strategies that can distinguish free
// scheduling decisions from prefix-pinned replays. The runner consults
// the dedup set only at free decisions: a replayed prefix retraces a path
// whose states were claimed by the run that pushed the prefix, and
// cutting a replay there would abandon the very subtree the prefix
// assigns. TraceStrategy implements it; random strategies do not, which
// is what keeps dedup an exhaustive-exploration-only mechanism.
type freeDecider interface {
	// FreeDecisions reports whether scheduling decisions are now free
	// (the replay prefix, if any, is exhausted).
	FreeDecisions() bool
}

// Per-thread op-history opcodes. Folded with each operation's canonical
// operands and observed results, they pin a deterministic thread body's
// program position: equal histories mean the thread has performed the
// same operation sequence with the same results, hence sits at the same
// local state.
const (
	opAlloc uint64 = iota + 1
	opRead
	opWrite
	opFree
	opFence
	opFenceSC
	opCAS
	opFAA
	opXchg
	opUpdate
	opYield
	opReport
)

// foldOp folds one completed operation into thread tid's rolling
// op-history hash. Two independent 64-bit lanes (different mix constants
// and pre-rotation) push accidental-collision probability far below the
// fingerprint's own 128-bit budget. No-op unless dedup is armed.
func (c *controller) foldOp(tid int, vs ...uint64) {
	if c.opHist == nil {
		return
	}
	h := &c.opHist[tid]
	for _, v := range vs {
		h[0] = (h[0] ^ v) * 1099511628211
		h[1] = (h[1] ^ bits.RotateLeft64(v, 31)) * 0xff51afd7ed558ccd
	}
}

// canonLoc returns the stable canonical ID assigned to l at Alloc time
// (0 when dedup is off and no IDs are tracked).
func (c *controller) canonLoc(l view.Loc) uint64 {
	if c.opHist == nil {
		return 0
	}
	return c.locCanon[l]
}

// b2u encodes a bool for hashing.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// strHash is FNV-1a over a string, for outcome and report names.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// appendDedupState appends the canonical encoding of everything that
// determines the run's continuation: the thread lifecycle bytes, the
// memory (histories, views, SC clock), each thread's view state and op
// history, the POR bookkeeping (pending accesses, sleep and done masks,
// read floors — included because two paths can reach isomorphic states
// with different sleep sets, and cutting a run whose sleep set is smaller
// than the claimant's would unsoundly drop the continuations only the
// smaller set explores), and the outcome map in sorted name order
// (cross-thread report interleaving on the same name is invisible to
// per-thread histories).
func (c *controller) appendDedupState(buf []byte) []byte {
	for _, s := range c.state {
		buf = append(buf, byte(s))
	}
	o := c.mem.CanonicalOrder()
	buf = c.mem.AppendCanon(buf, o)
	for tid, t := range c.threads {
		if t.tv == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = o.AppendCanonThread(buf, t.tv)
		}
		h := c.opHist[tid]
		buf = binary.LittleEndian.AppendUint64(buf, h[0])
		buf = binary.LittleEndian.AppendUint64(buf, h[1])
		if c.por != POROff {
			p := c.pending[tid]
			buf = append(buf, byte(p.Kind))
			switch p.Kind {
			case memory.AccRead, memory.AccWrite, memory.AccRMW, memory.AccFree:
				buf = binary.LittleEndian.AppendUint64(buf, c.locCanon[p.Loc])
			case memory.AccReport:
				buf = binary.LittleEndian.AppendUint64(buf, strHash(p.Name))
			}
			if c.floors != nil {
				buf = binary.AppendUvarint(buf, uint64(c.floors[tid]))
			}
		}
	}
	if c.por != POROff {
		buf = binary.LittleEndian.AppendUint64(buf, c.sleep)
		buf = binary.LittleEndian.AppendUint64(buf, c.doneMask)
	}
	// Keys are collected and then sorted, so visit order cannot leak
	// into the fingerprint.
	//compass:orderinsensitive
	names := make([]string, 0, len(c.outcome))
	for k := range c.outcome {
		names = append(names, k)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, k := range names {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendVarint(buf, c.outcome[k])
	}
	return buf
}

// dedupJSON is the serialized form: the cap plus the fingerprints in LRU
// order (most recent first), hex-encoded. Serializing the visited set
// into checkpoints is what keeps a resumed dedup job's run count
// byte-identical to an uninterrupted one: without it, states claimed
// before the kill would be re-claimed after.
type dedupJSON struct {
	Cap  int      `json:"cap"`
	Keys []string `json:"keys"`
}

// MarshalJSON serializes the cap and all fingerprints in LRU order.
func (d *Dedup) MarshalJSON() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j := dedupJSON{Cap: d.cap, Keys: make([]string, 0, d.lru.Len())}
	for el := d.lru.Front(); el != nil; el = el.Next() {
		fp := el.Value.(Fingerprint)
		j.Keys = append(j.Keys, hex.EncodeToString(fp[:]))
	}
	return json.Marshal(j)
}

// UnmarshalJSON rebuilds the set with the serialized LRU order.
func (d *Dedup) UnmarshalJSON(data []byte) error {
	var j dedupJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Cap <= 0 {
		j.Cap = DefaultDedupCap
	}
	if len(j.Keys) > j.Cap {
		return fmt.Errorf("machine: dedup snapshot has %d keys, cap %d", len(j.Keys), j.Cap)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cap = j.Cap
	d.m = make(map[Fingerprint]*list.Element, len(j.Keys))
	d.lru = list.New()
	for _, k := range j.Keys {
		raw, err := hex.DecodeString(k)
		if err != nil || len(raw) != fingerprintLen {
			return fmt.Errorf("machine: bad dedup key %q", k)
		}
		var fp Fingerprint
		copy(fp[:], raw)
		if _, dup := d.m[fp]; dup {
			return fmt.Errorf("machine: duplicate dedup key %q", k)
		}
		d.m[fp] = d.lru.PushBack(fp) // keys arrive most-recent-first
	}
	return nil
}
