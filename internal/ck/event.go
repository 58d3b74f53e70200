package ck

import (
	"fmt"

	"vpp/internal/hw"
)

// EventKind names one kind of Cache Kernel event.
type EventKind uint8

// The event kinds. Each non-dispatch kind is one step of a narrated
// path: the page fault of Figure 2, memory-based messaging (§2.2), an
// injected fault (internal/chaos), and the SRM's crash recovery and
// migration (§3), which the SRM emits on its kernel's stream.
const (
	EvDispatch              EventKind = iota // Obj thread, A CPU index, Name execution
	EvFault                                  // Obj space, A va, B hw.Fault, Name execution
	EvForward                                // Name handler kernel
	EvHandled                                // A 1 if the handler resumes the thread
	EvLoadResume                             // A va, B pfn
	EvSignalGenerate                         // A va, B pa
	EvSignalDeliver                          // Obj thread, A value
	EvChaosDropSignal                        // Obj thread, A value
	EvChaosDupSignal                         // Obj thread, A value
	EvChaosCorruptWriteback                  // Obj written-back object, Name its kind
	EvCrash                                  // A epoch after the reboot
	EvRecoverDetect                          // Obj stale SRM kernel, A epoch
	EvRecoverReboot                          // no fields
	EvRecoverRevive                          // Name kernel
	EvRecoverReload                          // Obj new kernel id, Name kernel
	EvRecoverService                         // Name service
	EvRecoverResume                          // Name execution
	EvMigrateExpel                           // Name kernel
	EvMigrateAdopt                           // Obj new kernel id, Name kernel
	numEventKinds
)

var eventNames = [numEventKinds]string{
	EvDispatch:              "dispatch",
	EvFault:                 "fault",
	EvForward:               "forward",
	EvHandled:               "handled",
	EvLoadResume:            "load+resume",
	EvSignalGenerate:        "signal-generate",
	EvSignalDeliver:         "signal-deliver",
	EvChaosDropSignal:       "chaos-drop-signal",
	EvChaosDupSignal:        "chaos-dup-signal",
	EvChaosCorruptWriteback: "chaos-corrupt-writeback",
	EvCrash:                 "crash",
	EvRecoverDetect:         "recover-detect",
	EvRecoverReboot:         "recover-reboot",
	EvRecoverRevive:         "recover-revive",
	EvRecoverReload:         "recover-reload",
	EvRecoverService:        "recover-service",
	EvRecoverResume:         "recover-resume",
	EvMigrateExpel:          "migrate-expel",
	EvMigrateAdopt:          "migrate-adopt",
}

func (k EventKind) String() string {
	if k < numEventKinds {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one typed record of the Cache Kernel's event stream. At is
// the virtual time in cycles of the context that raised it; the meaning
// of Obj, A, B and Name depends on Kind (see the kind constants).
// Emitting an event formats nothing: only printers call Detail.
type Event struct {
	At   uint64
	Kind EventKind
	Obj  ObjID
	A, B uint64
	Name string
}

// Detail renders the event's narration text, as cktrace and ckos -v
// print it.
func (ev Event) Detail() string {
	switch ev.Kind {
	case EvDispatch:
		return fmt.Sprintf("%v (%s) on cpu %d", ev.Obj, ev.Name, ev.A)
	case EvFault:
		return fmt.Sprintf("%v access at %#x in %v (%v)", hw.Fault(ev.B), ev.A, ev.Obj, ev.Name)
	case EvForward:
		return fmt.Sprintf("state saved; switched to kernel %q handler", ev.Name)
	case EvHandled:
		return fmt.Sprintf("handler returned resume=%v", ev.A != 0)
	case EvLoadResume:
		return fmt.Sprintf("mapping va=%#x pfn=%#x loaded; exception completed", ev.A, ev.B)
	case EvSignalGenerate:
		return fmt.Sprintf("write to message page va=%#x pa=%#x", ev.A, ev.B)
	case EvSignalDeliver, EvChaosDropSignal, EvChaosDupSignal:
		return fmt.Sprintf("to %v value=%#x", ev.Obj, ev.A)
	case EvChaosCorruptWriteback:
		return fmt.Sprintf("%s %v", ev.Name, ev.Obj)
	case EvCrash:
		return fmt.Sprintf("epoch %d", ev.A)
	case EvRecoverDetect:
		return fmt.Sprintf("stale kernel id %v; instance is at epoch %d", ev.Obj, ev.A)
	case EvRecoverReboot:
		return "CPUs drained; re-booting SRM as first kernel"
	case EvRecoverRevive:
		return fmt.Sprintf("main of %q recreated from its body", ev.Name)
	case EvRecoverReload:
		return fmt.Sprintf("kernel %q unswapped (kid %v)", ev.Name, ev.Obj)
	case EvRecoverService:
		return fmt.Sprintf("service %q restarted from its body", ev.Name)
	case EvRecoverResume:
		return fmt.Sprintf("first application dispatch: %q", ev.Name)
	case EvMigrateExpel:
		return fmt.Sprintf("kernel %q written back and expelled", ev.Name)
	case EvMigrateAdopt:
		return fmt.Sprintf("kernel %q reloaded (kid %v)", ev.Name, ev.Obj)
	}
	return ""
}

// Observe registers fn to receive every event this kernel emits, after
// the observers registered before it. Observers run synchronously, in
// the emitting context, so they see the simulation at the event's instant and may act on it (schedule a
// control message, stamp a recovery report). They survive Crash.
func (k *Kernel) Observe(fn func(Event)) {
	k.observers = append(k.observers, fn)
}

// Emit publishes ev, with its At already stamped, to the observers.
// The SRM narrates recovery and migration on its kernel's stream
// through it; with no observer it costs one length check.
func (k *Kernel) Emit(ev Event) {
	for _, fn := range k.observers {
		fn(ev)
	}
}

// emit publishes an event raised by execution e, or with e nil by a
// device or the engine. It inlines to one length check, so a kernel
// with no observer pays nothing more.
func (k *Kernel) emit(e *hw.Exec, ev Event) {
	if len(k.observers) != 0 {
		k.stamp(e, ev)
	}
}

// stamp dates ev with the virtual time of the context that raised it
// and publishes it.
func (k *Kernel) stamp(e *hw.Exec, ev Event) {
	if e != nil {
		ev.At = e.Now()
	} else {
		ev.At = k.MPM.Engine.Now()
	}
	k.Emit(ev)
}
