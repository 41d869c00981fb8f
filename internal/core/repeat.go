package core

import "repro/internal/graph"

// repeatCheck detects that Algorithm 1's cancellation loop has revisited a
// state. The loop body is a deterministic function of (solution edge set,
// C_ref) — the residual, ΔD, ΔC and the cap all derive from them, and Find
// returns the same candidate for every worker count — so once a state
// recurs, the loop cycles through the same states forever and can only end
// at its deadline or MaxIterations, both of which return the phase-1
// endpoint Lo. Cutting the loop at the repeat returns that same answer
// without the wait.
//
// The check is Brent's cycle detection over the loop-top states: a
// checkpoint state is saved at steps 0, 1, 3, 7, …, and every later state
// is compared with it, which finds a cycle of period λ entered after μ
// steps by step 2·max(μ+1, λ) + λ, keeping one checkpoint. States
// compare by a Zobrist hash of the solution (XOR of per-edge keys, updated
// from the flipped edges as each candidate is applied) and C_ref; a hash
// match is confirmed against a bitmap of the checkpoint's edge set, so a
// collision can never cut a loop that was still moving. Both bitmaps are
// allocated once per solve; observing a state allocates nothing.
type repeatCheck struct {
	hash  uint64   // Zobrist hash of the current solution
	cur   []uint64 // current solution as a bitmap over edge IDs
	saved []uint64 // checkpoint solution bitmap
	// savedHash/savedRef are the checkpoint's hash and C_ref; lam is the
	// distance from the checkpoint to the next observed state (0 before the
	// first), power the distance at which the checkpoint moves next.
	savedHash uint64
	savedRef  int64
	lam       int
	power     int
}

// newRepeatCheck starts a check for a loop over an m-edge graph whose
// first state holds the edges of sol.
func newRepeatCheck(m int, sol graph.EdgeSet) *repeatCheck {
	words := (m + 63) / 64
	rc := &repeatCheck{cur: make([]uint64, words), saved: make([]uint64, words), power: 1}
	for _, id := range sol.IDs() {
		rc.toggle(id)
	}
	return rc
}

// zobristKey is edge id's hash key: the splitmix64 finaliser of the ID, so
// keys need no table and agree in every process.
func zobristKey(id graph.EdgeID) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// toggle flips id's membership in the current solution.
func (rc *repeatCheck) toggle(id graph.EdgeID) {
	rc.hash ^= zobristKey(id)
	rc.cur[id/64] ^= 1 << (uint(id) % 64)
}

// observe takes the next loop-top state — the current solution and cRef —
// and reports whether it equals an earlier one, with the loop's period.
func (rc *repeatCheck) observe(cRef int64) (period int, repeated bool) {
	if rc.lam > 0 && rc.hash == rc.savedHash && cRef == rc.savedRef && rc.sameAsSaved() {
		return rc.lam, true
	}
	if rc.lam == 0 || rc.lam == rc.power {
		if rc.lam > 0 {
			rc.power *= 2
		}
		rc.savedHash, rc.savedRef = rc.hash, cRef
		copy(rc.saved, rc.cur)
		rc.lam = 0
	}
	rc.lam++
	return 0, false
}

// sameAsSaved compares the current and checkpoint edge sets word by word.
func (rc *repeatCheck) sameAsSaved() bool {
	var diff uint64
	for i, w := range rc.cur {
		diff |= w ^ rc.saved[i]
	}
	return diff == 0
}
