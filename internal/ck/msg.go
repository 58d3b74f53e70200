package ck

import "vpp/internal/hw"

// Memory-based messaging (paper §2.2, §4.1). Threads communicate by
// writing into pages mapped in message mode; the hardware's
// signal-on-write raises MessageWrite here, and the Cache Kernel
// delivers the written address — translated into each receiver's virtual
// address — to the signal threads registered in the page's mappings.

// MessageWrite implements hw.Supervisor: e completed a write to a
// message-mode page at (va, pa).
func (k *Kernel) MessageWrite(e *hw.Exec, va, pa uint32) {
	k.Stats.SignalsGenerated++
	k.emit(e, Event{Kind: EvSignalGenerate, A: uint64(va), B: uint64(pa)})
	e.ChargeNoIntr(costSignalGenerate)
	pfn := pa >> hw.PageShift
	offset := pa & (hw.PageSize - 1)
	sender := k.threadOf(e)

	// Fast path: the sending processor's reverse TLB has a current
	// receiver set for this frame.
	var rt *rtlb
	if cpu := e.CPU; cpu != nil && cpu.Index < len(k.rtlbs) {
		rt = k.rtlbs[cpu.Index]
	}
	if rt != nil {
		if recv, ok := rt.lookup(pfn, k.pmVersion); ok {
			for _, rc := range recv {
				to, ok := k.threads.get(rc.threadSlot, rc.gen)
				if !ok {
					continue
				}
				if sender != nil && to == sender {
					continue
				}
				e.ChargeNoIntr(costSignalFast)
				k.Stats.SignalsFast++
				k.deliverSignal(to, rc.va|offset, e.Now(), e)
			}
			return
		}
	}

	// Two-stage lookup: physical-to-virtual records for the frame, then
	// signal records keyed by each record's handle.
	var recv []rtlbReceiver
	probes := k.pm.findEach(depPhysVirt, pfn, func(pvIdx int32, r *depRecord) bool {
		rva := r.dep
		probes2 := k.pm.findEach(depSignal, uint32(pvIdx), func(_ int32, sr *depRecord) bool {
			to := k.threads.at(int32(sr.dep))
			recv = append(recv, rtlbReceiver{threadSlot: to.slot, gen: to.id.gen(), va: rva})
			return true
		})
		e.ChargeNoIntr(uint64(probes2) * costHashProbe)
		return true
	})
	e.ChargeNoIntr(uint64(probes) * costHashProbe)
	for _, rc := range recv {
		to, ok := k.threads.get(rc.threadSlot, rc.gen)
		if !ok {
			continue
		}
		if sender != nil && to == sender {
			continue
		}
		e.ChargeNoIntr(costSignalTwoStage)
		k.Stats.SignalsTwoStage++
		k.deliverSignal(to, rc.va|offset, e.Now(), e)
	}
	if rt != nil {
		rt.fill(pfn, k.pmVersion, recv)
	}
}

// deliverSignal hands an address-valued signal to a thread, first
// letting an installed fault injector lose or duplicate it (the
// inter-processor interrupt behind the delivery is the lossy part;
// queue state inside the Cache Kernel is not).
func (k *Kernel) deliverSignal(to *ThreadObj, value uint32, nowHint uint64, e *hw.Exec) {
	if f := k.SignalFault; f != nil {
		v := f(to.id, value)
		if v.Drop {
			k.emit(e, Event{Kind: EvChaosDropSignal, Obj: to.id, A: uint64(value)})
			return
		}
		if v.Dup {
			k.emit(e, Event{Kind: EvChaosDupSignal, Obj: to.id, A: uint64(value)})
			k.deliverSignalOnce(to, value, nowHint, e)
		}
	}
	k.deliverSignalOnce(to, value, nowHint, e)
}

// deliverSignalOnce wakes the thread if it blocked in WaitSignal and
// queues otherwise ("while the thread is running in its signal
// function, additional signals are queued within the Cache Kernel").
func (k *Kernel) deliverSignalOnce(to *ThreadObj, value uint32, nowHint uint64, e *hw.Exec) {
	k.emit(e, Event{Kind: EvSignalDeliver, Obj: to.id, A: uint64(value)})
	if to.waitingSignal {
		to.waitingSignal = false
		to.sigPending = true
		to.sigValue = value
		if e != nil {
			e.ChargeNoIntr(hw.CostIPI)
		}
		k.sched.makeReady(to, nowHint)
		return
	}
	if len(to.sigQueue) < signalQueueLimit {
		to.sigQueue = append(to.sigQueue, value)
		k.Stats.SignalsQueued++
		if e != nil {
			e.ChargeNoIntr(costSignalEnqueue)
		}
		return
	}
	k.Stats.SignalsDropped++
}

// RaiseDeviceSignal delivers an address-valued signal from a device
// (engine or device-execution context): the path by which the clock,
// network interfaces and the fiber channel notify threads. Devices are
// hardware — no kernel permission check applies. It reports whether the
// thread was still loaded.
func (k *Kernel) RaiseDeviceSignal(id ObjID, value uint32) bool {
	to, ok := k.lookupThread(id)
	if !ok {
		return false
	}
	k.deliverSignal(to, value, k.MPM.Engine.Now(), nil)
	return true
}

// SignalReturn charges the return-from-signal-handler path; the
// communication library calls it when a receiver finishes processing a
// signal (Section 5.3 measures delivery and return separately).
func (k *Kernel) SignalReturn(e *hw.Exec) {
	e.ChargeNoIntr(costSignalReturn)
}
