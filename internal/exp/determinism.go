package exp

import (
	"fmt"
	"math"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// RunDeterminismWorkload boots one Cache Kernel per MPM of a two-MPM
// machine and runs a mixed workload on each: demand-paged touches,
// getpid traps, memory-based signal delivery, an alarm, and short-lived
// worker threads. It reports the final virtual clock and scheduling
// step count; trace (optional) observes every coroutine dispatch. The
// run is fully deterministic — the determinism regression test hashes
// its schedule trace against a golden generated before the engine
// optimization.
func RunDeterminismWorkload(trace func(name string, id int, at uint64)) (finalClock, steps uint64, err error) {
	cfg := hw.DefaultConfig()
	cfg.MPMs = 2
	m := hw.NewMachine(cfg)
	defer m.Close()
	m.SetTraceDispatch(trace)

	errs := make([]error, cfg.MPMs)
	for i, mpm := range m.MPMs {
		if err := bootDeterminismKernel(i, mpm, &errs[i]); err != nil {
			return 0, 0, err
		}
	}
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return 0, 0, err
	}
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	return m.Now(), m.Steps(), nil
}

func bootDeterminismKernel(idx int, mpm *hw.MPM, bodyErr *error) error {
	k, err := ck.New(mpm, ck.Config{})
	if err != nil {
		return err
	}
	const sysGetpid = 20
	attrs := ck.KernelAttrs{
		Name: fmt.Sprintf("det%d", idx),
		Trap: func(e *hw.Exec, th ck.ObjID, no uint32, args []uint32) (uint32, uint32) {
			if no == sysGetpid {
				e.Instr(6)
				return uint32(100 + idx), 0
			}
			return ^uint32(0), 0
		},
		LockQuota: [4]int{4, 8, 16, 256},
	}
	winBase := uint32(0x2000_0000 + uint32(idx)<<24)
	const winPages = 96
	attrs.Fault = func(fe *hw.Exec, th, space ck.ObjID, va uint32, write bool, kind hw.Fault) bool {
		if va < winBase || va >= winBase+winPages*hw.PageSize {
			return false
		}
		err := k.LoadMappingAndResume(fe, space, ck.MappingSpec{
			VA:       va &^ (hw.PageSize - 1),
			PFN:      1024 + (va>>hw.PageShift)%512,
			Writable: true, Cachable: true,
		})
		return err == nil
	}

	var info ck.BootInfo
	body := func(e *hw.Exec) { *bodyErr = runDeterminismBody(k, e, idx, winBase, sysGetpid, info.Space) }
	info, err = k.Boot(attrs, 40, body)
	return err
}

func runDeterminismBody(k *ck.Kernel, e *hw.Exec, idx int, winBase uint32, sysGetpid uint32, bootSid ck.ObjID) error {
	userSid, err := k.LoadSpace(e, false)
	if err != nil {
		return fmt.Errorf("mpm%d: user space: %w", idx, err)
	}

	// Receiver: two message-write signals plus one alarm signal.
	recvDone := false
	recv := k.MPM.NewExec(fmt.Sprintf("recv%d", idx), func(re *hw.Exec) {
		for i := 0; i < 3; i++ {
			if _, err := k.WaitSignal(re); err != nil {
				return
			}
			re.Instr(20)
			k.SignalReturn(re)
		}
		recvDone = true
	})
	rtid, err := k.LoadThread(e, userSid, ck.ThreadState{Priority: 35, Exec: recv}, false)
	if err != nil {
		return fmt.Errorf("mpm%d: recv thread: %w", idx, err)
	}

	// Toucher: demand-faults a page window twice (cold then warm) with
	// a few traps mixed in.
	touchDone := false
	toucher := k.MPM.NewExec(fmt.Sprintf("touch%d", idx), func(te *hw.Exec) {
		for lap := 0; lap < 2; lap++ {
			for p := uint32(0); p < 48; p++ {
				te.Touch(winBase+p*hw.PageSize, lap == 1)
				if p%16 == 7 {
					te.Trap(sysGetpid)
				}
			}
		}
		touchDone = true
	})
	if _, err := k.LoadThread(e, userSid, ck.ThreadState{Priority: 30, Exec: toucher}, false); err != nil {
		return fmt.Errorf("mpm%d: toucher: %w", idx, err)
	}

	// Short-lived workers: fault a couple of pages, trap, exit.
	for w := 0; w < 6; w++ {
		base := winBase + uint32(48+w*4)*hw.PageSize
		worker := k.MPM.NewExec(fmt.Sprintf("worker%d.%d", idx, w), func(we *hw.Exec) {
			we.Touch(base, true)
			we.Touch(base+hw.PageSize, false)
			we.Trap(sysGetpid)
		})
		if _, err := k.LoadThread(e, userSid, ck.ThreadState{Priority: 28, Exec: worker}, false); err != nil {
			return fmt.Errorf("mpm%d: worker: %w", idx, err)
		}
	}

	// Message channel: receiver side signal mapping plus sender window
	// in the boot space; a shared low frame that is actually written.
	sharedPFN := uint32(600 + idx)
	if err := k.LoadMapping(e, userSid, ck.MappingSpec{VA: 0x5000_0000, PFN: sharedPFN, Message: true, SignalThread: rtid}); err != nil {
		return fmt.Errorf("mpm%d: recv mapping: %w", idx, err)
	}
	if err := k.LoadMapping(e, bootSid, ck.MappingSpec{VA: 0x6000_0000, PFN: sharedPFN, Writable: true, Message: true}); err != nil {
		return fmt.Errorf("mpm%d: send mapping: %w", idx, err)
	}
	e.Charge(hw.CyclesFromMicros(200))
	e.Store32(0x6000_0000, 1)
	e.Charge(hw.CyclesFromMicros(150))
	e.Store32(0x6000_0000, 2)

	// Alarm: the third signal arrives from the timer.
	if err := k.SetAlarm(e, rtid, e.Now()+hw.CyclesFromMicros(800), 7); err != nil {
		return fmt.Errorf("mpm%d: alarm: %w", idx, err)
	}

	for i := 0; i < 4000 && !(recvDone && touchDone); i++ {
		e.Charge(2000)
	}
	if !recvDone || !touchDone {
		return fmt.Errorf("mpm%d: workload incomplete: recv=%v touch=%v", idx, recvDone, touchDone)
	}
	return nil
}
