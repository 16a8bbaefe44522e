package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The op stream is a pure function of (seed, thread, op index): no
// generator state is carried between ops, so any prefix can be replayed
// (the traced run replays the timed run's first ops) and two runs with
// one seed issue byte-identical requests.

type opKind uint8

const (
	opGet opKind = iota
	opInsert
	opRemove
	opRange
)

func (k opKind) isRead() bool { return k == opGet || k == opRange }

// op is one generated operation. key is always owned by the issuing
// thread (key ≡ thread mod threads) except for opRange, whose bounds
// [key, key+rangeSpan] cover both threads' keys.
type op struct {
	kind opKind
	key  int64
	val  int64
}

// rangeSpan is the width of an embed-range query: [k, k+100] over a
// half-full universe returns ≈50 pairs.
const rangeSpan = 100

// zipfScramble maps a zipf rank to a key slot. It is odd, so the map
// is a bijection on any power-of-two slot count, and it scatters the
// hot ranks across the key space instead of clustering them at 0.
const zipfScramble = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// stream generates one thread's ops.
type stream struct {
	seed     uint64
	thread   int
	threads  int
	slots    uint64 // keys owned by this thread: universe / threads
	readPct  uint64
	insPct   uint64 // the rest of 100 is Remove
	readKind opKind // opGet or opRange
	zipf     *zipf  // nil = uniform
}

func newStream(w *workload, seed uint64, thread, threads int) *stream {
	s := &stream{
		seed:     seed,
		thread:   thread,
		threads:  threads,
		slots:    uint64(w.universe) / uint64(threads),
		readPct:  uint64(w.readPct),
		insPct:   uint64(w.insertPct),
		readKind: opGet,
	}
	if w.ranges {
		s.readKind = opRange
	}
	if w.zipfTheta > 0 {
		s.zipf = newZipf(int(s.slots), w.zipfTheta)
	}
	return s
}

// at returns op i of the stream.
func (s *stream) at(i uint64) op {
	r1 := mix64(s.seed ^ uint64(s.thread+1)*0xD6E8FEB86659FD93 ^ i*0x9E3779B97F4A7C15)
	r2 := mix64(r1 + 0x632BE59BD9B4E019)
	var slot uint64
	if s.zipf != nil {
		u := float64(r2>>11) / (1 << 53)
		slot = (uint64(s.zipf.rank(u)) * zipfScramble) & (s.slots - 1)
	} else {
		slot = mulHi(r2, s.slots)
	}
	o := op{key: int64(slot)*int64(s.threads) + int64(s.thread), val: int64(r1 >> 1)}
	switch die := mulHi(r1, 100); {
	case die < s.readPct:
		o.kind = s.readKind
	case die < s.readPct+s.insPct:
		o.kind = opInsert
	default:
		o.kind = opRemove
	}
	return o
}

// mulHi maps a uniform 64-bit r onto [0, n) without modulo bias.
func mulHi(r, n uint64) uint64 {
	hi, _ := bits.Mul64(r, n)
	return hi
}

// prefilled reports whether key k is in the initial half of the
// universe, and with which value; it depends only on the seed.
func prefilled(seed uint64, k int64) (int64, bool) {
	r := mix64(seed ^ 0xA0761D6478BD642F ^ uint64(k)*0xE7037ED1A0B428DB)
	return int64(r >> 1), r&1 == 1
}

// zipf draws ranks in [0, n) with P(rank r) ∝ 1/(r+1)^theta, using the
// closed-form inversion of Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases" (the YCSB generator): constant
// time per draw after one O(n) zeta sum.
type zipf struct {
	n, theta, alpha, zetan, eta, half float64
}

func zeta(n int, theta float64) float64 {
	var z float64
	for i := 1; i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	return z
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n, theta)}
	z.half = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// rank maps a uniform u in [0,1) to a rank.
func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// bkeyLen is the width of the v2 workloads' byte-string keys and values.
const bkeyLen = 16

// appendBKey encodes an int64 key or value as an order-preserving
// 16-byte string (big-endian in the low 8 bytes).
func appendBKey(dst []byte, k int64) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint64(dst, uint64(k))
}

func parseBKey(b []byte) (int64, bool) {
	if len(b) != bkeyLen {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(b[8:])), binary.BigEndian.Uint64(b[:8]) == 0
}
