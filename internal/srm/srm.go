// Package srm implements the system resource manager: the first
// application kernel, instantiated when the Cache Kernel boots, that
// owns the other application kernels and divides physical resources
// among them (paper Section 3).
//
// The SRM allocates memory in page groups, processor capacity in
// percentages over extended periods, and network capacity by rate —
// large units the application kernels suballocate internally. It is the
// owning kernel for other kernels' address spaces and threads and
// handles their writebacks.
package srm

import (
	"fmt"
	"sort"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
)

// SRM is one MPM's system resource manager instance.
type SRM struct {
	*aklib.AppKernel
	Boot ck.BootInfo

	groups *GroupAllocator

	launched map[string]*Launched
	services map[string]*aklib.Thread

	// resuming is the recovery waiting for its first application
	// dispatch (watchResume).
	resuming *RecoveryReport
}

// Launched records one application kernel started by the SRM.
type Launched struct {
	Name string
	AK   *aklib.AppKernel
	KID  ck.ObjID
	SID  ck.ObjID
	Main *aklib.Thread

	opts   LaunchOpts
	groups []uint32 // first page-group indices granted
	sm     *aklib.SegmentManager
}

// LaunchOpts configures an application kernel launch.
type LaunchOpts struct {
	// Groups is the number of 512 KB page groups of physical memory to
	// grant.
	Groups int
	// CPUShare is the percentage of each processor allocated (nil means
	// 100 each).
	CPUShare []int
	// MaxPrio caps the priorities the kernel may assign (0 = no cap).
	MaxPrio int
	// MainPrio is the main thread's priority.
	MainPrio int
	// NetShare is the granted network transmit rate in packets per
	// simulated second (0 = unlimited); enforced by the SRM's channel
	// manager.
	NetShare int
	// Locked pins the kernel object and its own address space in the
	// Cache Kernel, making the kernel's mapping and thread locks
	// effective (real-time configurations; paper §4.2's dependency
	// locking rule).
	Locked bool
}

// Start boots the Cache Kernel with the SRM as the first kernel and runs
// main as its initial thread once the machine runs.
func Start(k *ck.Kernel, mpm *hw.MPM, main func(s *SRM, e *hw.Exec)) (*SRM, error) {
	// Each MPM is its own computer (paper §3); the simulator models the
	// modules' memories as slices of one physical address range, so this
	// module's SRM may grant only its own slice — two SRMs handing out
	// the same frame would silently corrupt each other's kernels.
	groups := mpm.Machine.Phys.Size() / hw.PageGroupSize
	per := groups / uint32(len(mpm.Machine.MPMs))
	lo := uint32(mpm.ID) * per
	if lo == 0 {
		lo = 1 // group 0: boot frames, device buffers
	}
	s := &SRM{
		AppKernel: aklib.NewAppKernel("srm", k, mpm),
		groups:    NewGroupAllocatorRange(lo, uint32(mpm.ID)*per+per),
		launched:  make(map[string]*Launched),
		services:  make(map[string]*aklib.Thread),
	}
	attrs := s.Attrs()
	attrs.Name = "srm"
	boot, err := k.Boot(attrs, 50, func(e *hw.Exec) {
		s.AdoptThread("boot", s.Boot.Thread, s.Boot.Space, e, 50)
		main(s, e)
	})
	if err != nil {
		return nil, err
	}
	s.Boot = boot
	s.ID = boot.Kernel
	s.SpaceID = boot.Space
	// Cache pressure may write a launched kernel back (swap it out); the
	// SRM records it so Unswap can revive it later.
	s.OnKernelWB = func(id ck.ObjID) {
		var names []string
		for n := range s.launched {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if l := s.launched[n]; l.KID == id {
				s.DetachSpace(l.SID)
				l.AK.DetachSpace(l.SID)
				l.KID, l.SID = 0, 0
			}
		}
	}
	// The SRM's own frames come from a private grant.
	for i := 0; i < 8; i++ {
		if g, ok := s.groups.Alloc(); ok {
			s.Frames.AddGroup(g * hw.PageGroupPages)
		}
	}
	aklib.NewSegmentManager(s.AppKernel, s.SpaceID)
	return s, nil
}

// Launch creates, funds and starts a new application kernel: kernel
// object, memory grant, processor share, its own address space, and a
// main thread running main (paper §3: "the SRM initiates the execution
// of a new application kernel by creating a new kernel object, address
// space, and thread, granting an initial resource allocation ... and
// loading these objects into the Cache Kernel").
func (s *SRM) Launch(e *hw.Exec, name string, opts LaunchOpts, main func(ak *aklib.AppKernel, e *hw.Exec)) (*Launched, error) {
	if _, dup := s.launched[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyLaunched, name)
	}
	k := s.CK
	ak := aklib.NewAppKernel(name, k, s.MPM)
	attrs := ak.Attrs()
	attrs.MaxPrio = opts.MaxPrio
	attrs.CPUShare = opts.CPUShare
	attrs.Locked = opts.Locked
	kid, err := k.LoadKernel(e, attrs)
	if err != nil {
		return nil, fmt.Errorf("srm: load kernel: %w", err)
	}
	ak.ID = kid

	l := &Launched{Name: name, AK: ak, KID: kid, opts: opts}
	for i := 0; i < opts.Groups; i++ {
		g, ok := s.groups.Alloc()
		if !ok {
			return nil, ErrNoCapacity
		}
		l.groups = append(l.groups, g)
		if err := k.SetKernelMemoryAccess(e, kid, g, 1, true, true); err != nil {
			return nil, err
		}
		ak.Frames.AddGroup(g * hw.PageGroupPages)
	}
	if opts.CPUShare != nil {
		if err := k.SetKernelCPUShare(e, kid, opts.CPUShare); err != nil {
			return nil, err
		}
	}

	sid, err := k.LoadSpace(e, opts.Locked)
	if err != nil {
		return nil, fmt.Errorf("srm: load space: %w", err)
	}
	if err := k.SetKernelSpace(e, kid, sid); err != nil {
		return nil, err
	}
	ak.SpaceID = sid
	l.SID = sid
	sm := aklib.NewSegmentManager(ak, sid)
	l.sm = sm
	// The kernel's own space is owned by the SRM, so its faults arrive
	// at the SRM's handler: route them to the kernel's segment manager.
	s.AttachSpace(sid, sm)

	prio := opts.MainPrio
	if prio == 0 {
		prio = 20
	}
	l.Main = ak.NewThread("main", sid, prio, func(me *hw.Exec) {
		main(ak, me)
	})
	if err := l.Main.Load(e, false); err != nil {
		return nil, fmt.Errorf("srm: load main thread: %w", err)
	}
	// The SRM owns this thread, so its writebacks arrive here.
	s.TrackThread(l.Main)
	s.launched[name] = l
	return l, nil
}

// Swap unloads an application kernel's cached objects — the SRM "may
// swap the application kernel out, unloading its objects and saving its
// state" (paper §3). The kernel's threads, spaces and mappings are
// written back to their aklib records; physical frames and grants are
// retained.
func (s *SRM) Swap(e *hw.Exec, name string) error {
	l := s.launched[name]
	if l == nil {
		return fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	k := s.CK
	if l.Main != nil && l.Main.Loaded {
		if err := l.Main.Unload(e); err != nil {
			return err
		}
	}
	if err := k.UnloadKernel(e, l.KID); err != nil && err != ck.ErrInvalidID {
		return err
	}
	if err := k.UnloadSpace(e, l.SID); err != nil && err != ck.ErrInvalidID {
		return err
	}
	s.DetachSpace(l.SID)
	l.AK.DetachSpace(l.SID)
	l.KID, l.SID = 0, 0
	return nil
}

// Unswap reloads a swapped kernel: a fresh kernel object, space and
// identifiers (identifiers change across reload, as the caching model
// requires), with mappings refaulted on demand.
func (s *SRM) Unswap(e *hw.Exec, name string) error {
	l := s.launched[name]
	if l == nil {
		return fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	if l.KID != 0 {
		return fmt.Errorf("%w: %q", ErrNotSwapped, name)
	}
	k := s.CK
	ak := l.AK
	attrs := ak.Attrs()
	attrs.MaxPrio = l.opts.MaxPrio
	attrs.CPUShare = l.opts.CPUShare
	kid, err := k.LoadKernel(e, attrs)
	if err != nil {
		return err
	}
	l.KID = kid
	ak.ID = kid
	for _, g := range l.groups {
		if err := k.SetKernelMemoryAccess(e, kid, g, 1, true, true); err != nil {
			return err
		}
	}
	sid, err := k.LoadSpace(e, false)
	if err != nil {
		return err
	}
	if err := k.SetKernelSpace(e, kid, sid); err != nil {
		return err
	}
	l.SID = sid
	ak.SpaceID = sid
	if l.sm != nil {
		l.sm.SID = sid
		ak.AttachSpace(sid, l.sm)
		s.AttachSpace(sid, l.sm)
	}
	if l.Main != nil {
		l.Main.SpaceID = sid
		if err := l.Main.Load(e, false); err != nil {
			return err
		}
		s.TrackThread(l.Main)
	}
	return nil
}

// Kernel reports a launched kernel by name.
func (s *SRM) Kernel(name string) *Launched { return s.launched[name] }

// FreeGroups reports how many physical page groups remain grantable —
// the orchestration plane's capacity signal for placement.
func (s *SRM) FreeGroups() int { return s.groups.Available() }

// AddService installs a named worker thread in the SRM's own address
// space and registers it for crash replay: after a Cache Kernel
// crash-reboot, Recover restarts every service from its body (the old
// execution context is unrecoverable, like any crashed thread's). The
// orchestration plane's per-MPM agents run as services, so the control
// plane survives the crashes it manages. The body must therefore be
// idempotent from the top — the usual setup-once-then-poll shape.
//
// Services load locked. A service parks in WaitSignal between polls,
// making it the cache's least-recently-used thread exactly when the
// module is busiest; if pressure then evicted it, its pending alarm
// would be dropped by the delivery generation check and the service
// would sleep forever. The SRM's kernel and space are locked from boot,
// so the thread lock is effective (paper §4.2's dependency rule), and
// the lock draws on the SRM's own thread lock quota.
func (s *SRM) AddService(e *hw.Exec, name string, prio int, body func(e *hw.Exec)) (*aklib.Thread, error) {
	if _, dup := s.services[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrServiceExists, name)
	}
	t := s.NewThread("svc/"+name, s.SpaceID, prio, body)
	if err := t.Load(e, true); err != nil {
		return nil, err
	}
	s.services[name] = t
	return t, nil
}

// ServiceDead reports whether a service's execution context died
// without being restarted — a kill fault landed on it while it ran. A
// whole-kernel crash is the guardian's business (Recover replays every
// service); this predicate is for the narrower case where only the
// service thread was lost and the rest of the module kept going.
func (s *SRM) ServiceDead(name string) bool {
	t := s.services[name]
	return t != nil && t.Exec != nil && t.Exec.Finished()
}

// ReviveService regenerates a dead service thread from its body — the
// single-thread analogue of Recover's service replay. The caching model
// makes this cheap: the body is the master copy, the descriptor and the
// execution context are both regenerable, so losing them to a kill
// fault costs a reload, not state. The caller must be a thread of the
// first kernel (services live in the SRM's space).
func (s *SRM) ReviveService(e *hw.Exec, name string) error {
	t := s.services[name]
	if t == nil {
		return fmt.Errorf("%w: service %q", ErrUnknownKernel, name)
	}
	t.Retire()
	t.MarkUnloaded()
	if !t.Rehome() {
		return fmt.Errorf("srm: service %q has no body to revive from", name)
	}
	t.SpaceID = s.SpaceID
	return t.Load(e, true)
}

// serviceNames returns the installed service names in deterministic
// order.
func (s *SRM) serviceNames() []string {
	names := make([]string, 0, len(s.services))
	for n := range s.services {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GroupAllocator divides physical memory into page groups for granting
// to application kernels.
type GroupAllocator struct {
	free []uint32
}

// NewGroupAllocator covers a physical memory of the given byte size,
// reserving group 0 (low memory: boot frames, device buffers).
func NewGroupAllocator(physBytes uint32) *GroupAllocator {
	return NewGroupAllocatorRange(1, physBytes/hw.PageGroupSize)
}

// NewGroupAllocatorRange covers page groups [lo, hi) — the slice of
// machine memory belonging to one module when several MPMs share the
// simulated physical address range.
func NewGroupAllocatorRange(lo, hi uint32) *GroupAllocator {
	g := &GroupAllocator{}
	for i := hi; i > lo; i-- {
		g.free = append(g.free, i-1)
	}
	return g
}

// Alloc takes a free page group.
func (g *GroupAllocator) Alloc() (uint32, bool) {
	if len(g.free) == 0 {
		return 0, false
	}
	v := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	return v, true
}

// Free returns a page group.
func (g *GroupAllocator) Free(v uint32) { g.free = append(g.free, v) }

// Available reports free group count.
func (g *GroupAllocator) Available() int { return len(g.free) }
