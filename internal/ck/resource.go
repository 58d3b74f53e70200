package ck

import "vpp/internal/hw"

// Processor-time accounting (paper §4.3): the Cache Kernel monitors each
// thread's consumption, charges it to the owning kernel at a rate
// graduated by priority — a premium for high-priority execution, a
// discount below the midpoint — and demotes a kernel's threads to the
// lowest priority for the remainder of an accounting window once the
// kernel exceeds its allocation, so they only run on otherwise-idle
// processors.

// chargeRate returns the rate numerator for a priority (denominator 16):
// 16 at the midpoint, up to 24 at the top, down to 12 at priority 0.
func (k *Kernel) chargeRate(prio int) uint64 {
	mid := NumPriorities / 2
	if prio >= mid {
		return uint64(16 + 8*(prio-mid)/mid)
	}
	return uint64(16 - 4*(mid-prio)/mid)
}

// accountUsage charges delta consumed cycles by t to its owning kernel.
func (k *Kernel) accountUsage(t *ThreadObj, delta uint64) {
	ko := t.owner
	if ko == nil || len(ko.usage) == 0 {
		return
	}
	cpu := 0
	if t.cpu != nil {
		cpu = t.cpu.Index
	}
	k.rollWindow(ko)
	add := delta * k.chargeRate(t.prio) / 16
	// A dispatch interval can span window boundaries (accounting is
	// lazy); cap the contribution so a single interval cannot inflate
	// one window beyond full utilization at its charge rate.
	if maxAdd := accountingWindow * k.chargeRate(t.prio) / 16; add > maxAdd {
		add = maxAdd
	}
	ko.usage[cpu] += add
}

// rollWindow lazily closes an expired accounting window, computing
// per-CPU consumption percentages against the kernel's allocation.
func (k *Kernel) rollWindow(ko *KernelObj) {
	now := k.MPM.Engine.Now()
	w := accountingWindow
	if now-ko.windowStart < w {
		return
	}
	share := ko.attrs.CPUShare
	wasOver := anyOver(ko)
	for i := range ko.usage {
		pct := ko.usage[i] * 100 / w
		limit := uint64(100)
		if i < len(share) {
			limit = uint64(share[i])
		}
		ko.overQuota[i] = pct > limit
		ko.usage[i] = 0
	}
	ko.windowStart = now
	if !wasOver && anyOver(ko) {
		k.Stats.QuotaDemotions++
	}
}

func anyOver(ko *KernelObj) bool {
	for _, v := range ko.overQuota {
		if v {
			return true
		}
	}
	return false
}

// overQuota reports whether the kernel is currently demoted on any CPU.
// (The paper demotes per processor; with the MPM-global ready queue this
// reproduction demotes the kernel's threads uniformly, which preserves
// the observable behaviour — over-quota kernels only consume otherwise
// idle cycles.)
func (k *Kernel) overQuota(ko *KernelObj) bool {
	k.rollWindow(ko)
	return anyOver(ko)
}

// checkMappingAccess verifies that the loading kernel's memory access
// array grants the required rights to the physical page (paper §4.3).
func (k *Kernel) checkMappingAccess(e *hw.Exec, ko *KernelObj, pfn uint32, write bool) bool {
	e.ChargeNoIntr(costAccessCheck)
	g := pfn / hw.PageGroupPages
	r := ko.groupAccess(g)
	if write {
		return r&rightWrite != 0
	}
	return r&rightRead != 0
}

// lockQuotaIndex maps object kinds to KernelAttrs.LockQuota indices.
const (
	lockQuotaKernel = iota
	lockQuotaSpace
	lockQuotaThread
	lockQuotaMapping
)

// chargeLock consumes one unit of the kernel's locked-object quota,
// reporting whether the lock is permitted.
func (k *Kernel) chargeLock(ko *KernelObj, kind int) bool {
	if ko.lockedCount[kind] >= ko.attrs.LockQuota[kind] {
		return false
	}
	ko.lockedCount[kind]++
	return true
}

// releaseLock returns one unit of locked-object quota.
func (k *Kernel) releaseLock(ko *KernelObj, kind int) {
	if ko.lockedCount[kind] > 0 {
		ko.lockedCount[kind]--
	}
}
