package unixemu

import (
	"testing"
	"testing/quick"

	"vpp/internal/hw"
	"vpp/internal/sim"
)

func TestRamFSReadWriteAt(t *testing.T) {
	fs := NewRamFS()
	f := fs.Create("/a")
	f.WriteAt(10, []byte("hello"))
	if f.Size() != 15 {
		t.Fatalf("size = %d", f.Size())
	}
	if got := string(f.ReadAt(10, 5)); got != "hello" {
		t.Fatalf("read = %q", got)
	}
	// Hole before the write reads as zeros.
	for _, b := range f.ReadAt(0, 10) {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// Reads past EOF truncate; reads at EOF are empty.
	if got := f.ReadAt(12, 100); len(got) != 3 {
		t.Fatalf("tail read = %d bytes", len(got))
	}
	if got := f.ReadAt(15, 1); got != nil {
		t.Fatalf("EOF read = %v", got)
	}
	if _, ok := fs.Open("/missing"); ok {
		t.Fatal("opened a missing file")
	}
}

func TestRamFSProperty(t *testing.T) {
	fn := func(seed uint64, nOps uint8) bool {
		r := sim.NewRand(seed)
		fs := NewRamFS()
		f := fs.Create("/p")
		ref := map[uint32]byte{}
		var max uint32
		for i := 0; i < int(nOps); i++ {
			off := uint32(r.Intn(2000))
			b := []byte{byte(r.Uint64()), byte(r.Uint64())}
			f.WriteAt(off, b)
			ref[off] = b[0]
			ref[off+1] = b[1]
			if off+2 > max {
				max = off + 2
			}
		}
		if f.Size() != max && nOps > 0 {
			return false
		}
		for off, want := range ref {
			got := f.ReadAt(off, 1)
			if len(got) != 1 || got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSyscallErrnoPaths(t *testing.T) {
	startUnix(t, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("errs", func(env *ProcEnv) {
			// Bad descriptor.
			if n, errn := env.Write(17, env.HeapBase(), 4); n != -1 || errn != EBADF {
				t.Errorf("write bad fd: %d/%d", n, errn)
			}
			if errn := env.Close(17); errn != EBADF {
				t.Errorf("close bad fd: %d", errn)
			}
			// Open without create on a missing file.
			if fd, errn := env.Open("/nope", false); fd != -1 || errn != ENOENT {
				t.Errorf("open missing: %d/%d", fd, errn)
			}
			// Wait with no children.
			if _, _, ok := env.Wait(); ok {
				t.Error("wait with no children succeeded")
			}
			// Kill a nonexistent pid.
			if errn := env.Kill(999); errn != ESRCH {
				t.Errorf("kill 999: %d", errn)
			}
			// Spawn of an unregistered name (host-side lookup).
			if _, errn := env.Spawn("ghost"); errn != ENOENT {
				t.Errorf("spawn ghost: %d", errn)
			}
			// Reading the console is EOF.
			if n, _ := env.Read(1, env.HeapBase(), 8); n != 0 {
				t.Errorf("console read = %d", n)
			}
			// Unknown syscall number.
			if r0, r1 := env.Exec().Trap(250); r0 != ^uint32(0) || r1 != EINVAL {
				t.Errorf("unknown syscall: %#x/%d", r0, r1)
			}
		})
		p, err := u.Spawn(e, "errs", nil)
		if err != nil {
			t.Fatal(err)
		}
		waitProcDone(u, e, p.PID())
	})
}

func TestSbrkBounds(t *testing.T) {
	startUnix(t, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("brk", func(env *ProcEnv) {
			// Growing past the heap ceiling fails.
			r0, r1 := env.Exec().Trap(SysSbrk, uint32(HeapMaxPages+1)*hw.PageSize)
			if r0 != ^uint32(0) || r1 != ENOMEM {
				t.Errorf("oversized sbrk: %#x/%d", r0, r1)
			}
			// Normal growth returns the old break and is contiguous.
			b1 := env.Sbrk(hw.PageSize)
			b2 := env.Sbrk(hw.PageSize)
			if b2 != b1+hw.PageSize {
				t.Errorf("brk sequence %#x -> %#x", b1, b2)
			}
		})
		p, _ := u.Spawn(e, "brk", nil)
		waitProcDone(u, e, p.PID())
	})
}

func TestFDTableGrowsPastThree(t *testing.T) {
	startUnix(t, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("fds", func(env *ProcEnv) {
			var fds []int
			for i := 0; i < 6; i++ {
				fd, errn := env.Open("/f", true)
				if fd < 0 {
					t.Errorf("open %d: errno %d", i, errn)
					return
				}
				fds = append(fds, fd)
			}
			// All descriptors distinct and >= 3 (0-2 reserved).
			seen := map[int]bool{}
			for _, fd := range fds {
				if fd < 3 || seen[fd] {
					t.Errorf("bad fd %d in %v", fd, fds)
				}
				seen[fd] = true
			}
			// Close one and reuse its slot.
			env.Close(fds[2])
			fd, _ := env.Open("/f", false)
			if fd != fds[2] {
				t.Errorf("slot not reused: got %d want %d", fd, fds[2])
			}
		})
		p, _ := u.Spawn(e, "fds", nil)
		waitProcDone(u, e, p.PID())
	})
}

func TestProcessTableLimitIsSoft(t *testing.T) {
	// Contrast with the monolithic baseline's hard error: the emulator's
	// own process-table limit is policy, but the Cache Kernel itself
	// keeps loading descriptors by writing others back.
	startUnix(t, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("sleeper", func(env *ProcEnv) { env.Sleep(30) })
		for i := 0; i < maxProcs-1; i++ {
			if _, err := u.Spawn(e, "sleeper", nil); err != nil {
				t.Fatalf("spawn %d: %v", i, err)
			}
		}
		if u.NumProcs() != maxProcs-1 {
			t.Fatalf("procs = %d, want %d", u.NumProcs(), maxProcs-1)
		}
		// The table's last entry is handed out; the next spawn exceeds
		// emulator policy.
		if _, err := u.Spawn(e, "sleeper", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Spawn(e, "sleeper", nil); err == nil {
			t.Fatal("spawn beyond the process table succeeded")
		}
		for u.NumProcs() > 0 {
			alive := false
			for _, p := range u.sortedProcs() {
				if p.state != procZombie {
					alive = true
				}
			}
			if !alive {
				break
			}
			e.Charge(hw.CyclesFromMicros(5000))
		}
	})
}
