package exp

import (
	"fmt"
	"math"
	"runtime"
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
// -exp fork emits it as BENCH_fork.json (see EXPERIMENTS.md).
type ForkReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	// The benchmark topology: MPMs Cache Kernels, each mapping and
	// dirtying PagesPerMPM pages and retiring WorkersPerMPM short-lived
	// threads before reaching the quiescent snapshot point.
	MPMs          int `json:"mpms"`
	CPUsPerMPM    int `json:"cpus_per_mpm"`
	PagesPerMPM   int `json:"pages_per_mpm"`
	WorkersPerMPM int `json:"workers_per_mpm"`

	// Boot-from-scratch cost (the thing a fork avoids).
	BootHostMs    float64 `json:"boot_host_ms"`
	BootSimCycles uint64  `json:"boot_sim_cycles"`

	// Snapshot: one structural capture plus its deterministic encoding.
	SnapshotHostMs float64 `json:"snapshot_host_ms"`
	SnapshotBytes  int     `json:"snapshot_bytes"`

	// Fork: mean over Forks rebuilds from the image. ForkToBootRatio is
	// the headline number — a fork must be a small fraction of a boot
	// for boot-once/fork-many exploration to pay off.
	Forks           int     `json:"forks"`
	ForkHostMs      float64 `json:"fork_host_ms"`
	ForkToBootRatio float64 `json:"fork_to_boot_ratio"`

	// Copy-on-write: the cost of privatizing a shared frame on first
	// write, measured by dirtying every image frame of one fork.
	CowPages         uint64  `json:"cow_pages"`
	CowFaultNsPerPg  float64 `json:"cow_fault_ns_per_page"`
	CowSharedBefore  uint64  `json:"cow_shared_before"`
	CowCopiedByDirty uint64  `json:"cow_copied_by_dirty"`
}

func (r ForkReport) String() string {
	return fmt.Sprintf(
		"topology: %d MPMs x %d CPUs, %d pages + %d workers per MPM\n"+
			"boot from scratch:  %8.2f ms host (%d sim-cycles)\n"+
			"snapshot + encode:  %8.2f ms host, %d bytes\n"+
			"fork from image:    %8.3f ms host (mean of %d) = %.1f%% of boot\n"+
			"cow first-write:    %8.1f ns/page (%d of %d shared frames dirtied)\n",
		r.MPMs, r.CPUsPerMPM, r.PagesPerMPM, r.WorkersPerMPM,
		r.BootHostMs, r.BootSimCycles,
		r.SnapshotHostMs, r.SnapshotBytes,
		r.ForkHostMs, r.Forks, 100*r.ForkToBootRatio,
		r.CowFaultNsPerPg, r.CowCopiedByDirty, r.CowSharedBefore)
}

// Fork-benchmark page-frame layout: a per-MPM window of writable pages
// well clear of the boot images.
func forkBenchWinBase(mpm int) uint32 { return 0x5000_0000 + uint32(mpm)<<24 }
func forkBenchPFN(mpm, p int) uint32  { return 4096 + uint32(mpm)*256 + uint32(p) }

// bootForkBench boots the fork-benchmark machine: mpms Cache Kernels
// whose boot threads map and dirty a page window, then launch workers
// short-lived threads that each rewrite the window and exit. Every
// thread (workers and boot) has exited by the time the machine drains,
// so the result is quiescent — structurally snapshottable.
func bootForkBench(mpms, cpus, pages, workers int) (*hw.Machine, []*ck.Kernel, error) {
	cfg := hw.DefaultConfig()
	cfg.MPMs = mpms
	cfg.CPUsPerMPM = cpus
	m := hw.NewMachine(cfg)
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

// MeasureFork runs the snapshot/fork cost benchmark: boot the 16-MPM
// topology from scratch, snapshot it, fork it repeatedly, and dirty one
// fork end to end to price the copy-on-write faults.
func MeasureFork() (ForkReport, error) {
	r := ForkReport{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		MPMs:          16,
		CPUsPerMPM:    2,
		PagesPerMPM:   32,
		WorkersPerMPM: 32,
		Forks:         16,
	}

	t0 := time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	m, ks, err := bootForkBench(r.MPMs, r.CPUsPerMPM, r.PagesPerMPM, r.WorkersPerMPM)
	if err != nil {
		return r, err
	}
	r.BootHostMs = float64(time.Since(t0).Nanoseconds()) / 1e6 //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	r.BootSimCycles = m.Now()

	t0 = time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	im, err := snap.Take(m, ks)
	if err != nil {
		return r, err
	}
	enc, err := im.Encode()
	if err != nil {
		return r, err
	}
	r.SnapshotHostMs = float64(time.Since(t0).Nanoseconds()) / 1e6 //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	r.SnapshotBytes = len(enc)

	var last *hw.Machine
	t0 = time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	for i := 0; i < r.Forks; i++ {
		if last, _, err = im.Fork(1, nil); err != nil {
			return r, err
		}
	}
	r.ForkHostMs = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(r.Forks) //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	if r.BootHostMs > 0 {
		r.ForkToBootRatio = r.ForkHostMs / r.BootHostMs
	}

	// Dirty every frame the image carries on the last fork: each first
	// write privatizes one shared frame — the whole COW bill at once.
	var frames []uint32
	for pfn := uint32(0); pfn < im.Frames.Frames(); pfn++ {
		if im.Frames.PageBytes(pfn) != nil {
			frames = append(frames, pfn)
		}
	}
	r.CowPages = uint64(len(frames))
	r.CowSharedBefore = last.Phys.CowStats().SharedPages
	t0 = time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	for _, pfn := range frames {
		last.Phys.Write32(pfn*hw.PageSize, 0xD1D1_D1D1)
	}
	d := time.Since(t0) //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	if len(frames) > 0 {
		r.CowFaultNsPerPg = float64(d.Nanoseconds()) / float64(len(frames))
	}
	r.CowCopiedByDirty = last.Phys.CowStats().CopiedPages
	return r, nil
}
