package simtest

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/sim"
	"vpp/internal/snap"
)

// The fork scenario family exercises the structural snapshot/fork tier
// (internal/snap): boot once per (topology, page-window) class, snapshot
// the quiescent machine, then explore each seed's divergent
// continuations by forking the image instead of rebooting. Its oracles
// are the subsystem's contract:
//
//   - fork-vs-fresh: a forked continuation's dispatch trace, final
//     clock and memory contents are byte-identical to the same
//     continuation injected into a freshly booted machine;
//   - COW isolation: forks share the image's page frames copy-on-write
//     — the copied-page count matches the dirtied page set exactly, and
//     the parent image's bytes never change, no matter how many forks
//     scribble on it;
//   - snapshot determinism: booting the class again encodes to
//     identical snapshot bytes.
//
// The family is bare-ck (no SRM services): the op-stream family's
// service threads are immortal within a run, so its machines are never
// quiescent and cannot be forked.

// ForkScenario is one generated fork-exploration case.
type ForkScenario struct {
	Seed uint64

	MPMs       int
	CPUsPerMPM int
	// Pages is the per-MPM mapped page window the boot dirties and the
	// continuations scribble on.
	Pages int
	// Conts is how many divergent continuations to explore off the one
	// snapshot.
	Conts int
}

// ForkClass is the boot-image cache key: scenarios of one class share a
// single boot — the whole point of fork-powered exploration.
type ForkClass struct {
	MPMs       int
	CPUsPerMPM int
	Pages      int
}

// Class returns the scenario's boot-image class.
func (sc ForkScenario) Class() ForkClass {
	return ForkClass{MPMs: sc.MPMs, CPUsPerMPM: sc.CPUsPerMPM, Pages: sc.Pages}
}

// GenerateFork expands one seed into a fork scenario. The parameter
// ranges are deliberately narrow so seeds hash into few classes and the
// boot cache pays off.
func GenerateFork(seed uint64) ForkScenario {
	r := sim.NewRand(seed ^ 0x464f524b) // decorrelate from Generate's stream
	return ForkScenario{
		Seed:       seed,
		MPMs:       1 + r.Intn(3),
		CPUsPerMPM: 2,
		Pages:      []int{4, 8, 12}[r.Intn(3)],
		Conts:      2 + r.Intn(4),
	}
}

// ForkResult is the outcome of one fork scenario.
type ForkResult struct {
	Scenario ForkScenario
	Failures []Failure

	// Forks counts continuations explored; SnapshotBytes is the encoded
	// image size; CowCopied totals copy-on-write page copies across the
	// forks; Hash fingerprints the continuation dispatch schedules.
	Forks         int
	SnapshotBytes int
	CowCopied     uint64
	Hash          uint64
}

// Failed reports whether any oracle fired.
func (r *ForkResult) Failed() bool { return len(r.Failures) > 0 }

// Fingerprint renders the deterministic run summary.
func (r *ForkResult) Fingerprint() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fork_seed %d\n", r.Scenario.Seed)
	fmt.Fprintf(&b, "class mpms=%d cpus=%d pages=%d conts=%d\n",
		r.Scenario.MPMs, r.Scenario.CPUsPerMPM, r.Scenario.Pages, r.Scenario.Conts)
	fmt.Fprintf(&b, "fnv64a %016x\n", r.Hash)
	fmt.Fprintf(&b, "forks %d snapshot_bytes %d cow_copied %d\n", r.Forks, r.SnapshotBytes, r.CowCopied)
	fmt.Fprintf(&b, "failures %d\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  %s: %s\n", f.Oracle, f.Detail)
	}
	return b.String()
}

func forkWinBase(mpm int) uint32 { return 0x4000_0000 + uint32(mpm)<<24 }
func forkPFN(mpm, p int) uint32  { return 2048 + uint32(mpm)*64 + uint32(p) }
func forkBootVal(mpm, p int) uint32 {
	return 0xB007_0000 ^ uint32(mpm)*131 ^ uint32(p)*7
}

// bootForkClass builds and boots one machine of the class: per MPM a
// Cache Kernel whose boot thread maps the page window into the boot
// space, dirties every page, and exits — leaving the machine quiescent
// (no live thread descriptors, no parked calls), i.e. snapshottable.
// The caller closes the machine.
func bootForkClass(cl ForkClass) (_ *hw.Machine, _ []*ck.Kernel, err error) {
	cfg := hw.DefaultConfig()
	cfg.MPMs = cl.MPMs
	cfg.CPUsPerMPM = cl.CPUsPerMPM
	m := hw.NewMachine(cfg)
	defer func() {
		if err != nil {
			m.Close()
		}
	}()
	var ks []*ck.Kernel
	errs := make([]error, cl.MPMs)
	for i, mpm := range m.MPMs {
		k, err := ck.New(mpm, ck.Config{})
		if err != nil {
			return nil, nil, err
		}
		i := i
		var info ck.BootInfo
		body := func(e *hw.Exec) { errs[i] = bootForkBody(k, e, i, cl, info.Space) }
		attrs := ck.KernelAttrs{Name: fmt.Sprintf("fk%d", i), LockQuota: [4]int{4, 8, 16, 256}}
		info, err = k.Boot(attrs, 40, body)
		if err != nil {
			return nil, nil, err
		}
		ks = append(ks, k)
	}
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return nil, nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	return m, ks, nil
}

func bootForkBody(k *ck.Kernel, e *hw.Exec, idx int, cl ForkClass, sid ck.ObjID) error {
	base := forkWinBase(idx)
	for p := 0; p < cl.Pages; p++ {
		va := base + uint32(p)*hw.PageSize
		err := k.LoadMapping(e, sid, ck.MappingSpec{
			VA: va, PFN: forkPFN(idx, p), Writable: true, Cachable: true,
		})
		if err != nil {
			return fmt.Errorf("fork boot mpm %d: map %#x: %w", idx, va, err)
		}
		e.Store32(va, forkBootVal(idx, p))
	}
	e.Charge(5_000)
	return nil
}

// classImage is one cached boot snapshot: the image, its encoding and
// the encoding's digest, both taken when the image was built.
type classImage struct {
	im     *snap.Image
	enc    []byte
	digest uint64
}

var forkImages struct {
	mu sync.Mutex
	m  map[ForkClass]*classImage
}

// classSnapshot returns the class's boot image, booting and snapshotting
// on first use. The first build also runs the snapshot-determinism
// oracle: a second boot must encode to the identical bytes.
func classSnapshot(cl ForkClass) (*classImage, error) {
	forkImages.mu.Lock()
	defer forkImages.mu.Unlock()
	if ci, ok := forkImages.m[cl]; ok {
		return ci, nil
	}
	take := func() (*snap.Image, []byte, error) {
		m, ks, err := bootForkClass(cl)
		if err != nil {
			return nil, nil, fmt.Errorf("boot: %w", err)
		}
		defer m.Close()
		im, err := snap.Take(m, ks)
		if err != nil {
			return nil, nil, fmt.Errorf("take: %w", err)
		}
		enc, err := im.Encode()
		if err != nil {
			return nil, nil, fmt.Errorf("encode: %w", err)
		}
		return im, enc, nil
	}
	im, enc, err := take()
	if err != nil {
		return nil, err
	}
	_, enc2, err := take()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc, enc2) {
		return nil, fmt.Errorf("snapshot of class %+v not deterministic: re-boot encoded %d bytes vs %d, contents differ",
			cl, len(enc2), len(enc))
	}
	if forkImages.m == nil {
		forkImages.m = make(map[ForkClass]*classImage)
	}
	h := fnv.New64a()
	h.Write(enc)
	ci := &classImage{im: im, enc: enc, digest: h.Sum64()}
	forkImages.m[cl] = ci
	return ci, nil
}

// contPlan is one MPM's slice of a continuation: which pages to
// scribble, how often, and with what values. Drawn deterministically
// from (seed, continuation index) so the forked and the fresh machine
// inject byte-identical work.
type contPlan struct {
	laps, count, start int
	salt               uint32
}

func contPlans(sc ForkScenario, cont int) []contPlan {
	r := sim.NewRand(sc.Seed ^ 0x636f6e74 ^ uint64(cont)*0x9e3779b97f4a7c15)
	plans := make([]contPlan, sc.MPMs)
	for i := range plans {
		plans[i] = contPlan{
			laps:  1 + r.Intn(3),
			count: 1 + r.Intn(sc.Pages),
			start: r.Intn(sc.Pages),
			salt:  uint32(r.Uint64()),
		}
	}
	return plans
}

// expectedDirty is the number of distinct page frames a continuation
// writes: per MPM, count consecutive window pages (count <= Pages, so
// all distinct).
func expectedDirty(sc ForkScenario, cont int) uint64 {
	var n uint64
	for _, p := range contPlans(sc, cont) {
		n += uint64(p.count)
	}
	return n
}

// contOutcome fingerprints one continuation run: the dispatch schedule,
// the final clock, and a checksum over every value the continuation
// read from its pages (loads before and after each store, so leaked
// sibling or parent state shows up as a checksum mismatch).
type contOutcome struct {
	sched sim.TraceHash
	clock uint64
	sum   uint64
	err   error
}

func runForkContinuation(m *hw.Machine, ks []*ck.Kernel, sc ForkScenario, cont int) *contOutcome {
	out := &contOutcome{}
	m.SetTraceDispatch(out.sched.Add)
	plans := contPlans(sc, cont)
	sums := make([]uint64, len(ks))
	for i, k := range ks {
		i, pl := i, plans[i]
		body := func(e *hw.Exec) {
			var s uint64
			base := forkWinBase(i)
			for lap := 0; lap < pl.laps; lap++ {
				for q := 0; q < pl.count; q++ {
					p := (pl.start + q) % sc.Pages
					va := base + uint32(p)*hw.PageSize
					s = s*31 + uint64(e.Load32(va))
					e.Store32(va, pl.salt^uint32(lap*131+p*7))
					s = s*31 + uint64(e.Load32(va))
				}
				e.Charge(2_000)
			}
			sums[i] = s
		}
		if _, err := k.Resume(fmt.Sprintf("cont%d.%d", cont, i), 30, body); err != nil {
			out.err = fmt.Errorf("resume mpm %d: %w", i, err)
			return out
		}
	}
	if err := m.Run(math.MaxUint64); err != nil {
		out.err = fmt.Errorf("run: %w", err)
		return out
	}
	out.clock = m.Now()
	for _, s := range sums {
		out.sum = out.sum*1099511628211 + s
	}
	return out
}

// RunForkScenario explores one fork scenario: fork the class image once
// per continuation and check every oracle against a freshly booted
// machine running the identical continuation. shards is ignored.
//
// Deprecated: the shards parameter is kept only for the benchmark
// module, which passes it; it goes with the next benchmark change
// (ROADMAP item 7).
func RunForkScenario(sc ForkScenario, shards int) *ForkResult {
	res := &ForkResult{Scenario: sc}
	// conts folds each completed continuation's schedule hash, in
	// order, into res.Hash.
	var conts sim.TraceHash
	res.Hash = conts.Sum64()
	fail := func(oracle, format string, args ...any) {
		res.Failures = append(res.Failures, Failure{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}
	ci, err := classSnapshot(sc.Class())
	if err != nil {
		fail("snapshot", "%v", err)
		return res
	}
	res.SnapshotBytes = len(ci.enc)
	for c := 0; c < sc.Conts; c++ {
		if sched, ok := exploreContinuation(ci, sc, c, res, fail); ok {
			conts.Add("cont", sched)
		}
	}
	res.Hash = conts.Sum64()
	// The image as built is the reference, so a mutation left by an
	// earlier scenario fails this one too.
	if d1, err := ci.im.Digest(); err != nil {
		fail("cow", "post-fork digest: %v", err)
	} else if d1 != ci.digest {
		fail("cow", "parent image mutated by forks: digest %016x, was %016x", d1, ci.digest)
	}
	return res
}

// exploreContinuation runs continuation c on a fork of the class image
// and on a freshly booted machine, checks the fork-vs-fresh and COW
// oracles, and closes both machines. ok reports that both runs
// completed; sched is then the forked run's schedule hash.
func exploreContinuation(ci *classImage, sc ForkScenario, c int, res *ForkResult, fail func(oracle, format string, args ...any)) (sched uint64, ok bool) {
	fm, fks, err := ci.im.Fork(nil)
	if err != nil {
		fail("fork", "cont %d: %v", c, err)
		return 0, false
	}
	defer fm.Close()
	fOut := runForkContinuation(fm, fks, sc, c)
	if fOut.err != nil {
		fail("fork", "cont %d: %v", c, fOut.err)
		return 0, false
	}
	nm, nks, err := bootForkClass(sc.Class())
	if err != nil {
		fail("fork", "cont %d fresh boot: %v", c, err)
		return 0, false
	}
	defer nm.Close()
	// The fork warped its engine to the snapshot's global clock; align
	// the fresh machine's engine the same way so the two timelines are
	// comparable cycle for cycle.
	if err := nm.WarpClocks(nm.CaptureClocks()); err != nil {
		fail("fork", "cont %d fresh warp: %v", c, err)
		return 0, false
	}
	nOut := runForkContinuation(nm, nks, sc, c)
	if nOut.err != nil {
		fail("fork", "cont %d fresh: %v", c, nOut.err)
		return 0, false
	}
	if fOut.sched != nOut.sched {
		fail("fork-vs-fresh", "cont %d: forked schedule %016x/%d dispatches vs fresh %016x/%d",
			c, fOut.sched.Sum64(), fOut.sched.Count(), nOut.sched.Sum64(), nOut.sched.Count())
	}
	if fOut.clock != nOut.clock {
		fail("fork-vs-fresh", "cont %d: forked final clock %d vs fresh %d", c, fOut.clock, nOut.clock)
	}
	if fOut.sum != nOut.sum {
		fail("fork-vs-fresh", "cont %d: forked memory checksum %016x vs fresh %016x (leaked parent or sibling state)",
			c, fOut.sum, nOut.sum)
	}
	copied := fm.Phys.CopiedPages
	if want := expectedDirty(sc, c); copied != want {
		fail("cow", "cont %d: %d pages copied; continuation dirtied %d distinct pages", c, copied, want)
	}
	res.Forks++
	res.CowCopied += copied
	return fOut.sched.Sum64(), true
}
