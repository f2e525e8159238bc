// Package testutil is the shared differential-testing harness for this
// repository's key-value containers (cmap, mchtable, cuckoo, openaddr):
// it drives a container with an operation sequence — randomly generated,
// decoded from fuzz input, or hand-written — against a shadow map oracle
// and reports the first diverging operation.
//
// The harness is container-agnostic on purpose: it depends only on the
// generic Container interface (the method set of the library-wide
// container.Container, minus Stats), so the oracle runs over the real
// public typed containers — Map[string, uint64] as readily as the uint64
// simulator tables — and no import cycle forms between the harness and
// the packages under test. It is a regular (non _test) package so
// `go test` fuzz targets in those packages can import it.
package testutil

import (
	"fmt"

	"repro/internal/rng"
)

// Container is a K → V key-value store under differential test. Put
// reports whether the pair was stored (false = capacity rejection with
// the container unchanged; a resident key must always be updatable in
// place). Delete reports whether the key was present. Len counts stored
// pairs. Every container.Container satisfies it structurally.
type Container[K comparable, V any] interface {
	Put(key K, val V) bool
	Get(key K) (V, bool)
	Delete(key K) bool
	Len() int
	Range(fn func(key K, val V) bool)
}

// batchContainer is the optional batched-lookup surface OpGetBatch
// exercises when the container under test provides it (as every
// container.Container now does). Kept structural and optional so the
// harness still drives batch ops — degraded to per-key Gets — against
// containers without one.
type batchContainer[K comparable, V any] interface {
	GetBatch(keys []K, vals []V, found []bool) int
}

// recentWindow is how many recently touched keys an OpGetBatch gathers
// into its batch (plus the op's own key). Sized past cmap's internal
// pipelining chunk so a single op crosses a chunk boundary.
const recentWindow = 96

// Options adapt the harness to a container's semantics.
type Options struct {
	// TrackValues compares Get results against the oracle's stored
	// values; unset, only membership is compared (set-only containers
	// return a dummy value).
	TrackValues bool
	// NoDelete marks set-shaped drivers that should not exercise
	// deletion; Delete ops run as membership checks instead.
	NoDelete bool
	// Finalize, if set, runs after the op sequence and before the final
	// full-membership sweep — e.g. draining an in-flight cmap migration
	// so the sweep exercises the post-resize geometry.
	Finalize func()
}

// OpKind enumerates harness operations.
type OpKind uint8

const (
	OpPut OpKind = iota
	OpGet
	OpDelete
	// OpRange iterates the whole container (its Key and Val are unused)
	// and compares the visited set against the oracle exactly: every
	// pair present, none phantom, none visited twice.
	OpRange
	// OpGetBatch resolves the op's key together with a window of
	// recently touched keys (residents, deleted keys, and never-inserted
	// ones alike) through the container's batched lookup path — GetBatch
	// when the container has one, per-key Gets otherwise — and compares
	// every per-key result and the returned hit count against the
	// oracle. This is what pins cmap's batched GetBatch/MGet to the
	// same semantics as Get, including mid-migration (a Finalize-less
	// sequence leaves resizes in flight for later batch ops to probe).
	OpGetBatch
	numOpKinds
)

// String returns the op kind's display name.
func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "Put"
	case OpGet:
		return "Get"
	case OpDelete:
		return "Delete"
	case OpRange:
		return "Range"
	case OpGetBatch:
		return "GetBatch"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one operation of a differential test sequence. V is constrained
// comparable because the oracle compares stored values for equality.
type Op[K comparable, V comparable] struct {
	Kind OpKind
	Key  K
	Val  V
}

// Run drives ops against c and the shadow oracle, returning an error
// naming the first diverging op (index, op, observed vs expected), or nil
// if the container matches the oracle on every op (including the Len
// invariant, checked after each one — a transient double-count that a
// later op would cancel still diverges at the op that introduced it) and
// on the final full-membership sweep.
func Run[K comparable, V comparable](c Container[K, V], ops []Op[K, V], opt Options) error {
	return RunSeeded(c, nil, ops, opt)
}

// RunSeeded is Run against a container that already holds the pairs in
// preload — e.g. content recovered from a snapshot: the oracle starts
// from a copy of preload instead of empty, so the sequence exercises
// gets, deletes and range sweeps of the pre-existing keys from the
// first op.
func RunSeeded[K comparable, V comparable](c Container[K, V], preload map[K]V, ops []Op[K, V], opt Options) error {
	oracle := make(map[K]V, len(preload))
	for k, v := range preload {
		oracle[k] = v
	}
	// recent is the sliding window of keys prior ops touched — the
	// deterministic population OpGetBatch draws its batches from. It
	// deliberately retains deleted and never-inserted keys: batches must
	// report those absent, not merely resolve residents.
	var recent []K
	for i, op := range ops {
		want, resident := oracle[op.Key]
		switch op.Kind {
		case OpPut:
			ok := c.Put(op.Key, op.Val)
			switch {
			case ok:
				oracle[op.Key] = op.Val
			case resident:
				return fmt.Errorf("op %d: Put(%v, %v) rejected a resident key", i, op.Key, op.Val)
			default:
				// Capacity rejection: the container must be unchanged, so
				// the key stays absent.
				if _, found := c.Get(op.Key); found {
					return fmt.Errorf("op %d: Put(%v, %v) returned false but the key is present", i, op.Key, op.Val)
				}
			}
		case OpGet:
			if err := checkGet(c, op.Key, want, resident, opt, i); err != nil {
				return err
			}
		case OpDelete:
			if opt.NoDelete {
				if err := checkGet(c, op.Key, want, resident, opt, i); err != nil {
					return err
				}
				continue
			}
			if ok := c.Delete(op.Key); ok != resident {
				return fmt.Errorf("op %d: Delete(%v) = %v, oracle %v", i, op.Key, ok, resident)
			}
			delete(oracle, op.Key)
		case OpRange:
			if err := checkRange(c, oracle, opt, i); err != nil {
				return err
			}
		case OpGetBatch:
			keys := append([]K{op.Key}, recent...)
			if err := checkGetBatch(c, keys, oracle, opt, i); err != nil {
				return err
			}
		default:
			return fmt.Errorf("op %d: unknown kind %v", i, op.Kind)
		}
		if got := c.Len(); got != len(oracle) {
			return fmt.Errorf("op %d (%v %v): Len = %d, oracle holds %d keys", i, op.Kind, op.Key, got, len(oracle))
		}
		recent = append(recent, op.Key)
		if len(recent) > recentWindow {
			recent = recent[len(recent)-recentWindow:]
		}
	}
	if opt.Finalize != nil {
		opt.Finalize()
	}
	// Final sweep: exact membership (and values), no lost or phantom keys.
	if got := c.Len(); got != len(oracle) {
		return fmt.Errorf("final sweep: Len = %d, oracle holds %d keys", got, len(oracle))
	}
	for k, v := range oracle {
		got, found := c.Get(k)
		if !found {
			return fmt.Errorf("final sweep: key %v lost", k)
		}
		if opt.TrackValues && got != v {
			return fmt.Errorf("final sweep: key %v holds %v, oracle %v", k, got, v)
		}
	}
	return nil
}

// checkRange drives one full iteration and compares the visited set
// against the oracle: every oracle pair visited exactly once with its
// value, and nothing visited that the oracle does not hold.
func checkRange[K comparable, V comparable](c Container[K, V], oracle map[K]V, opt Options, i int) error {
	seen := make(map[K]struct{}, len(oracle))
	var rangeErr error
	c.Range(func(k K, v V) bool {
		if _, dup := seen[k]; dup {
			rangeErr = fmt.Errorf("op %d: Range visited key %v twice", i, k)
			return false
		}
		seen[k] = struct{}{}
		want, resident := oracle[k]
		if !resident {
			rangeErr = fmt.Errorf("op %d: Range visited key %v, which the oracle does not hold", i, k)
			return false
		}
		if opt.TrackValues && v != want {
			rangeErr = fmt.Errorf("op %d: Range saw %v = %v, oracle %v", i, k, v, want)
			return false
		}
		return true
	})
	if rangeErr != nil {
		return rangeErr
	}
	if len(seen) != len(oracle) {
		return fmt.Errorf("op %d: Range visited %d keys, oracle holds %d", i, len(seen), len(oracle))
	}
	return nil
}

// checkGetBatch resolves keys through the container's batched lookup
// path (per-key Gets when it has none) and compares every slot — and the
// reported hit count — against the oracle. Batches may carry duplicate
// and absent keys; each slot must independently match a plain Get.
func checkGetBatch[K comparable, V comparable](c Container[K, V], keys []K, oracle map[K]V, opt Options, i int) error {
	bc, ok := c.(batchContainer[K, V])
	if !ok {
		for _, k := range keys {
			want, resident := oracle[k]
			if err := checkGet(c, k, want, resident, opt, i); err != nil {
				return err
			}
		}
		return nil
	}
	vals := make([]V, len(keys))
	found := make([]bool, len(keys))
	hits := bc.GetBatch(keys, vals, found)
	wantHits := 0
	for j, k := range keys {
		want, resident := oracle[k]
		if resident {
			wantHits++
		}
		if found[j] != resident {
			return fmt.Errorf("op %d: GetBatch key %d (%v) found=%v, oracle %v", i, j, k, found[j], resident)
		}
		if resident && opt.TrackValues && vals[j] != want {
			return fmt.Errorf("op %d: GetBatch key %d (%v) = %v, oracle %v", i, j, k, vals[j], want)
		}
	}
	if hits != wantHits {
		return fmt.Errorf("op %d: GetBatch returned %d hits over %d keys, oracle %d", i, hits, len(keys), wantHits)
	}
	return nil
}

// checkGet compares one membership/value probe against the oracle.
func checkGet[K comparable, V comparable](c Container[K, V], key K, want V, resident bool, opt Options, i int) error {
	got, found := c.Get(key)
	if found != resident {
		return fmt.Errorf("op %d: Get(%v) found=%v, oracle %v", i, key, found, resident)
	}
	if found && opt.TrackValues && got != want {
		return fmt.Errorf("op %d: Get(%v) = %v, oracle %v", i, key, got, want)
	}
	return nil
}

// MapOps translates a uint64-shaped op sequence onto another key/value
// domain — e.g. driving a Map[string, uint64] with the same fuzz input
// the uint64 targets decode. key must be injective over the sequence's
// key space (distinct uint64 keys must map to distinct K), or the
// translated sequence would diverge from its own oracle; val may be any
// pure function.
func MapOps[K comparable, V comparable](ops []Op[uint64, uint64], key func(uint64) K, val func(uint64) V) []Op[K, V] {
	out := make([]Op[K, V], len(ops))
	for i, op := range ops {
		out[i] = Op[K, V]{Kind: op.Kind, Key: key(op.Key), Val: val(op.Val)}
	}
	return out
}

// RandomOps returns n random ops with keys uniform over [1, keySpace]:
// putFrac of them Puts, delFrac Deletes, the rest Gets. Values are drawn
// from the same deterministic stream, so a (seed, n, keySpace) triple
// pins the whole sequence.
func RandomOps(n int, keySpace uint64, putFrac, delFrac float64, seed uint64) []Op[uint64, uint64] {
	if keySpace == 0 || putFrac < 0 || delFrac < 0 || putFrac+delFrac > 1 {
		panic(fmt.Sprintf("testutil: RandomOps(keySpace=%d, putFrac=%v, delFrac=%v)", keySpace, putFrac, delFrac))
	}
	src := rng.NewXoshiro256(seed)
	ops := make([]Op[uint64, uint64], n)
	for i := range ops {
		op := Op[uint64, uint64]{Key: 1 + src.Uint64()%keySpace, Val: src.Uint64()}
		switch p := rng.Float64(src); {
		case p < putFrac:
			op.Kind = OpPut
		case p < putFrac+delFrac:
			op.Kind = OpDelete
		default:
			op.Kind = OpGet
		}
		ops[i] = op
	}
	return ops
}

// opBytes is the fixed encoding width of one op: kind, key (2 bytes,
// little-endian), value.
const opBytes = 4

// DecodeOps decodes fuzz input into an op sequence: each 4-byte chunk is
// [kind, keyLo, keyHi, val], with the kind reduced mod the number of op
// kinds (so fuzzers also emit Range sweeps) and the 16-bit key mapped
// into [1, keySpace]. A trailing partial chunk is ignored. Small keys and
// 1-byte values keep the fuzzer's search space dense in collisions,
// updates and delete/reinsert patterns. Seeds encoded before OpRange
// existed decode identically — kind values are append-only.
func DecodeOps(data []byte, keySpace uint64) []Op[uint64, uint64] {
	if keySpace == 0 {
		panic("testutil: DecodeOps keySpace = 0")
	}
	ops := make([]Op[uint64, uint64], 0, len(data)/opBytes)
	for ; len(data) >= opBytes; data = data[opBytes:] {
		ops = append(ops, Op[uint64, uint64]{
			Kind: OpKind(data[0] % uint8(numOpKinds)),
			Key:  1 + (uint64(data[1])|uint64(data[2])<<8)%keySpace,
			Val:  uint64(data[3]),
		})
	}
	return ops
}

// EncodeOps is the inverse of DecodeOps for corpus seeding: it encodes
// ops whose keys lie in [1, min(keySpace, 1<<16)] and values in [0, 255]
// so that DecodeOps(EncodeOps(ops), keySpace) reproduces them. It panics
// on ops outside that range — seeds must round-trip exactly or the corpus
// would silently diverge from the regression it pins.
func EncodeOps(ops []Op[uint64, uint64], keySpace uint64) []byte {
	data := make([]byte, 0, len(ops)*opBytes)
	for i, op := range ops {
		k := op.Key - 1
		if op.Key == 0 || k >= keySpace || k >= 1<<16 || op.Val > 255 || op.Kind >= numOpKinds {
			panic(fmt.Sprintf("testutil: EncodeOps op %d (%v %#x=%#x) does not round-trip at keySpace %d",
				i, op.Kind, op.Key, op.Val, keySpace))
		}
		data = append(data, byte(op.Kind), byte(k), byte(k>>8), byte(op.Val))
	}
	return data
}
