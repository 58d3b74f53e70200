package exp

import (
	"fmt"
	"math"
	"slices"
	"time"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/snap"
)

// ForkReport records the cost of the structural snapshot/fork path
// (internal/snap) against a full boot of the same machine: how long the
// 16-MPM fork-benchmark topology takes to boot from scratch, how long
// one snapshot and one fork cost, the encoded snapshot size, and the
// copy-on-write page-fault cost a fork pays on first write. cmd/ckbench
// -exp fork emits it as BENCH_fork.json (see EXPERIMENTS.md), which
// holds only the exact fields: the host timings are samples, one per
// round, and are printed as medians with their quartiles.
type ForkReport struct {
	// The benchmark topology: MPMs Cache Kernels, each mapping and
	// dirtying PagesPerMPM pages and retiring WorkersPerMPM short-lived
	// threads before reaching the quiescent snapshot point.
	MPMs          int `json:"mpms"`
	CPUsPerMPM    int `json:"cpus_per_mpm"`
	PagesPerMPM   int `json:"pages_per_mpm"`
	WorkersPerMPM int `json:"workers_per_mpm"`

	// BootSimCycles is the virtual time of the boot a fork avoids.
	BootSimCycles uint64 `json:"boot_sim_cycles"`
	// SnapshotBytes is the length of the image's deterministic encoding.
	SnapshotBytes int `json:"snapshot_bytes"`
	// Forks is how many rebuilds from the image each round times.
	Forks int `json:"forks"`

	// Copy-on-write: dirtying every image frame of one fork privatizes
	// each shared frame once.
	CowPages         uint64 `json:"cow_pages"`
	CowSharedBefore  uint64 `json:"cow_shared_before"`
	CowCopiedByDirty uint64 `json:"cow_copied_by_dirty"`

	// Host wall-clock samples, one per round, in milliseconds (CowNs in
	// nanoseconds per privatized page). A fork sample is the mean of
	// the round's Forks rebuilds.
	BootMs     []float64 `json:"-"`
	SnapshotMs []float64 `json:"-"`
	ForkMs     []float64 `json:"-"`
	CowNs      []float64 `json:"-"`
}

// ForkToBootRatio is the headline number: the median fork's share of
// the median boot. A fork must be a small fraction of a boot for
// boot-once/fork-many exploration to pay off.
func (r ForkReport) ForkToBootRatio() float64 {
	_, boot, _ := quartiles(r.BootMs)
	_, fork, _ := quartiles(r.ForkMs)
	if boot == 0 {
		return 0
	}
	return fork / boot
}

func (r ForkReport) String() string {
	spread := func(xs []float64, prec int) string {
		q1, med, q3 := quartiles(xs)
		return fmt.Sprintf("%.*f [%.*f, %.*f]", prec, med, prec, q1, prec, q3)
	}
	return fmt.Sprintf(
		"topology: %d MPMs x %d CPUs, %d pages + %d workers per MPM\n"+
			"host times: median [quartiles] over %d rounds\n"+
			"boot from scratch:  %s ms host (%d sim-cycles)\n"+
			"snapshot + encode:  %s ms host, %d bytes\n"+
			"fork from image:    %s ms host (mean of %d per round) = %.1f%% of boot\n"+
			"cow first-write:    %s ns/page (%d of %d shared frames dirtied)\n",
		r.MPMs, r.CPUsPerMPM, r.PagesPerMPM, r.WorkersPerMPM,
		len(r.BootMs),
		spread(r.BootMs, 2), r.BootSimCycles,
		spread(r.SnapshotMs, 2), r.SnapshotBytes,
		spread(r.ForkMs, 3), r.Forks, 100*r.ForkToBootRatio(),
		spread(r.CowNs, 1), r.CowCopiedByDirty, r.CowSharedBefore)
}

// quartiles returns the first quartile, median and third quartile of
// xs by linear interpolation between closest ranks; all three are zero
// for no samples. xs is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// Fork-benchmark page-frame layout: a per-MPM window of writable pages
// well clear of the boot images.
func forkBenchWinBase(mpm int) uint32 { return 0x5000_0000 + uint32(mpm)<<24 }
func forkBenchPFN(mpm, p int) uint32  { return 4096 + uint32(mpm)*256 + uint32(p) }

// bootForkBench boots the fork-benchmark machine: mpms Cache Kernels
// whose boot threads map and dirty a page window, then launch workers
// short-lived threads that each rewrite the window and exit. Every
// thread (workers and boot) has exited by the time the machine drains,
// so the result is quiescent — structurally snapshottable. The caller
// closes the machine.
func bootForkBench(mpms, cpus, pages, workers int) (_ *hw.Machine, _ []*ck.Kernel, err error) {
	cfg := hw.DefaultConfig()
	cfg.MPMs = mpms
	cfg.CPUsPerMPM = cpus
	m := hw.NewMachine(cfg)
	defer func() {
		if err != nil {
			m.Close()
		}
	}()
	var ks []*ck.Kernel
	errs := make([]error, mpms)
	for i, mpm := range m.MPMs {
		k, err := ck.New(mpm, ck.Config{})
		if err != nil {
			return nil, nil, err
		}
		i := i
		var info ck.BootInfo
		body := func(e *hw.Exec) { errs[i] = forkBenchBoot(k, e, i, pages, workers, info.Space) }
		info, err = k.Boot(ck.KernelAttrs{
			Name:      fmt.Sprintf("fb%d", i),
			LockQuota: [4]int{4, 8, 16, 256},
		}, 40, body)
		if err != nil {
			return nil, nil, err
		}
		ks = append(ks, k)
	}
	m.SetMaxSteps(500_000_000)
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

// forkBenchLaps is how many passes over the page window each worker
// makes: the boot must represent a real exploration workload's setup
// cost — the very thing boot-once/fork-many amortizes away.
const forkBenchLaps = 256

func forkBenchBoot(k *ck.Kernel, e *hw.Exec, idx, pages, workers int, sid ck.ObjID) error {
	base := forkBenchWinBase(idx)
	for p := 0; p < pages; p++ {
		va := base + uint32(p)*hw.PageSize
		err := k.LoadMapping(e, sid, ck.MappingSpec{
			VA: va, PFN: forkBenchPFN(idx, p), Writable: true, Cachable: true,
		})
		if err != nil {
			return fmt.Errorf("fork bench mpm %d: map %#x: %w", idx, va, err)
		}
		e.Store32(va, 0xF0B0_0000^uint32(idx)<<8^uint32(p))
	}
	for w := 0; w < workers; w++ {
		w := w
		we := k.MPM.NewExec(fmt.Sprintf("fbw%d.%d", idx, w), func(ue *hw.Exec) {
			for lap := 0; lap < forkBenchLaps; lap++ {
				for p := 0; p < pages; p++ {
					va := base + uint32(p)*hw.PageSize
					ue.Store32(va, ue.Load32(va)+uint32(w+1))
				}
			}
			ue.Charge(2_000)
		})
		if _, err := k.LoadThread(e, sid, ck.ThreadState{Priority: 28, Exec: we}, false); err != nil {
			return fmt.Errorf("fork bench mpm %d: worker %d: %w", idx, w, err)
		}
		e.Charge(1_000)
	}
	e.Charge(5_000)
	return nil
}

// forkRounds is how many boot, snapshot and fork rounds ckbench -exp
// fork times; its fork-to-boot gate reads their medians.
const forkRounds = 9

// MeasureFork runs the snapshot/fork cost benchmark rounds times in
// this process: each round boots the 16-MPM topology from scratch,
// snapshots it, forks it repeatedly and dirties one fork end to end
// to price the copy-on-write faults. Every round adds one sample to
// each host timing and writes the same exact fields.
func MeasureFork(rounds int) (ForkReport, error) {
	r := ForkReport{
		MPMs:          16,
		CPUsPerMPM:    2,
		PagesPerMPM:   32,
		WorkersPerMPM: 32,
		Forks:         16,
	}
	for i := 0; i < rounds; i++ {
		if err := r.round(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// round runs one boot, snapshot, fork and dirtying round and closes
// every machine it built.
func (r *ForkReport) round() error {
	ms := func(t0 time.Time) float64 {
		return float64(time.Since(t0).Nanoseconds()) / 1e6 //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	}
	t0 := time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	m, ks, err := bootForkBench(r.MPMs, r.CPUsPerMPM, r.PagesPerMPM, r.WorkersPerMPM)
	if err != nil {
		return err
	}
	defer m.Close()
	r.BootMs = append(r.BootMs, ms(t0))
	r.BootSimCycles = m.Now()

	t0 = time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	im, err := snap.Take(m, ks)
	if err != nil {
		return err
	}
	enc, err := im.Encode()
	if err != nil {
		return err
	}
	r.SnapshotMs = append(r.SnapshotMs, ms(t0))
	r.SnapshotBytes = len(enc)

	var last *hw.Machine
	t0 = time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	for i := 0; i < r.Forks; i++ {
		if last, _, err = im.Fork(nil); err != nil {
			return err
		}
		defer last.Close()
	}
	r.ForkMs = append(r.ForkMs, ms(t0)/float64(r.Forks))

	// Dirty every frame the image carries on the last fork: each first
	// write privatizes one shared frame — the whole COW bill at once.
	var frames []uint32
	im.Frames.Walk(func(pfn uint32, _ *[hw.PageSize]byte) { frames = append(frames, pfn) })
	r.CowPages = uint64(len(frames))
	r.CowSharedBefore = last.Phys.SharedPages
	t0 = time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	for _, pfn := range frames {
		last.Phys.Write32(pfn*hw.PageSize, 0xD1D1_D1D1)
	}
	if len(frames) > 0 {
		r.CowNs = append(r.CowNs, 1e6*ms(t0)/float64(len(frames)))
	}
	r.CowCopiedByDirty = last.Phys.CopiedPages
	return nil
}
