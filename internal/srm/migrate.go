package srm

import (
	"fmt"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// Live migration between MPMs. The caching model makes this a records
// handoff rather than a state copy: everything the Cache Kernel holds
// for an application kernel is regenerable from the owning SRM's
// backing records (paper §2), and the simulated machine's physical
// memory is machine-wide, so the kernel's resident frames and segment
// contents travel with the records for free. The protocol is
//
//	source: Expel — quiesce, force full descriptor writeback (Swap),
//	        drop the record, retire the old execution context
//	target: Adopt — rebind the library objects to the new instance,
//	        regenerate the main's execution context, reload (Unswap)
//
// with the *Launched record itself carried between the two SRMs by the
// orchestration plane (a cross-shard message when the MPMs live on
// different engine shards). Identifiers change across the move, exactly
// as they do across any reload.
//
// Resource grants deliberately do not return to the source: the page
// groups in l.groups stay allocated in the source SRM's allocator and
// are re-granted on the target Cache Kernel by Unswap's
// SetKernelMemoryAccess replay. Machine-wide frame ownership is what
// makes the migrated kernel's memory contents valid without copying;
// reclaiming the groups at the source would hand the same frames to a
// new kernel while the migrated one still uses them.

// Expel removes a launched kernel from this SRM for migration: it
// waits until no Cache Kernel call is in flight on this instance (the
// quiesce gate, so no caller observes the kernel mid-detach), forces a
// full writeback of every cached descriptor via the Swap path, drops
// the kernel from this SRM's launched set (so this MPM's guardian will
// not resurrect it), and retires the main thread's execution context —
// contexts are bound to the engine shard that created them and cannot
// follow the record. The returned record is the kernel, ready for
// Adopt on another SRM.
func (s *SRM) Expel(e *hw.Exec, name string) (*Launched, error) {
	l := s.launched[name]
	if l == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	for s.CK.InFlight() > 0 {
		e.Charge(hw.CostInstr * 16)
	}
	if l.KID != 0 {
		if err := s.Swap(e, name); err != nil {
			return nil, err
		}
	}
	delete(s.launched, name)
	if l.Main != nil {
		l.Main.Retire()
	}
	s.CK.Emit(ck.Event{At: e.Now(), Kind: ck.EvMigrateExpel, Name: name})
	return l, nil
}

// Adopt installs an expelled kernel on this SRM and reloads it: the
// library objects are rebound to this instance's Cache Kernel and MPM,
// the main thread gets a fresh execution context on this MPM (rerunning
// its body from the start, like a post-crash Revive), and the Unswap
// path reloads kernel object, space and main with new identifiers. The
// record is inserted into the launched set *before* the reload, so a
// crash of this MPM mid-adopt is recoverable: the guardian replays the
// same Unswap from the same record.
func (s *SRM) Adopt(e *hw.Exec, l *Launched) error {
	if _, dup := s.launched[l.Name]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyLaunched, l.Name)
	}
	if l.KID != 0 {
		return fmt.Errorf("%w: %q", ErrNotSwapped, l.Name)
	}
	l.AK.CK = s.CK
	l.AK.MPM = s.MPM
	if l.Main != nil && !l.Main.Rehome() {
		return fmt.Errorf("%w: %q", ErrNotRehomable, l.Name)
	}
	s.launched[l.Name] = l
	if err := s.Unswap(e, l.Name); err != nil {
		return err
	}
	s.CK.Emit(ck.Event{At: e.Now(), Kind: ck.EvMigrateAdopt, Obj: l.KID, Name: l.Name})
	return nil
}
