package ck

// Cache Kernel operation cost constants, in cycles (25 cycles = 1 µs).
//
// Each constant covers the fixed-path work of an operation (argument
// validation, descriptor initialization, queue manipulation) that the
// simulation does not charge structurally; variable work — page-table
// walks, hash probes, dependent-object writebacks — is charged where it
// happens, so operation times degrade realistically under load. The
// values are calibrated so that the unloaded-system times land on the
// paper's Table 2 and Section 5.3 (see EXPERIMENTS.md).
const (
	// Object load fixed costs (Table 2 "load, no writeback" column).
	costMappingLoad = 840
	costThreadLoad  = 2630
	costSpaceLoad   = 2330
	costKernelLoad  = 5900

	// Explicit unload fixed costs (Table 2 "unload" column).
	costMappingUnload = 3775
	costThreadUnload  = 4950
	costSpaceUnload   = 3400
	costKernelUnload  = 1800

	// Writeback transfer to the owning application kernel over the
	// writeback channel (adds to a load when the cache is full; Table 2
	// "load, writeback" column). Thread writeback moves the largest
	// descriptor plus the saved register context.
	costMappingWriteback = 2350
	costThreadWriteback  = 9400
	costSpaceWriteback   = 3200
	costKernelWriteback  = 1175

	// Fault and trap forwarding (Section 5.3).
	costFaultTransfer       = 785 // steps 1-2 of Figure 2: into the app kernel handler
	costFaultResume         = 420 // separate resume-from-exception call
	costMappingLoadOptExtra = 550 // load-and-resume beyond the plain load
	costTrapForward         = 430 // forward trap to app kernel (getpid path, one way)
	costTrapReturn          = 282

	// Memory-based messaging (Section 5.3: 44 µs deliver + 27 µs return).
	costSignalGenerate = 260 // signal-on-write detection and setup
	costSignalFast     = 420 // reverse-TLB hit delivery to active thread
	costSignalTwoStage = 560 // per-receiver two-stage pmap lookup path
	costSignalReturn   = 675 // return from signal handler
	costSignalEnqueue  = 120 // queueing while receiver is in its handler

	// Structural unit charges.
	costHashProbe   = 12 // one dependency-record chain step
	costDescInit    = 40 // descriptor field initialization
	costAccessCheck = 30 // memory access array check per mapping load
	costScanStep    = 2  // replacement clock-hand step
)
