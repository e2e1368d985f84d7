package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Keeping the host awake.
//
// The recorded numbers come from a 2-vCPU virtual machine whose idle vCPUs
// halt. A workload that leaves part of a vCPU idle — one closed-loop client
// keeps ~1.5 cores busy — then runs on whatever the hypervisor makes of a
// half-idle guest: identical work took 2.07–2.88 s of user CPU from one
// 90-op segment to the next, throughput drifted +-13 % over tens of seconds,
// and no calibration kernel run between segments tracked it. With every vCPU
// kept runnable the same segments repeat within +-2.5 %, and faster.
//
// So a run starts one child process per CPU that spins under SCHED_IDLE: the
// guest scheduler gives such a task the CPU only when nothing else is
// runnable there and takes it away the moment anything is, so the program
// loses no time to it, while the hypervisor sees a guest that never halts.
// It is the virtual-machine form of pinning the CPU governor and disabling
// C-states before measuring. The spinners are separate processes so that the
// CPU they burn is not in RUSAGE_SELF and a Go stop-the-world never waits
// for a starved thread.

const schedIdle = 5 // SCHED_IDLE

// spinIdle is the child: it drops to SCHED_IDLE, pins itself to the cpu-th
// CPU it may run on, and spins until its standard input reaches EOF, which
// happens when the parent closes the pipe or dies. If the policy cannot be
// set it exits at once rather than compete with the program.
func spinIdle(cpu int) int {
	runtime.LockOSThread()
	param := int32(0)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: idle spinner: sched_setscheduler(SCHED_IDLE): %v\n", errno)
		return 1
	}
	pinToNthCPU(cpu)
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
	}
}

// pinToNthCPU restricts the calling thread to the n-th CPU of its affinity
// mask. Failure is harmless: the guest scheduler then spreads the spinners.
func pinToNthCPU(n int) {
	var mask [16]uint64 // 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return
	}
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		if n == 0 {
			mask = [16]uint64{}
			mask[i/64] = 1 << (i % 64)
			_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask)))
			return
		}
		n--
	}
}

// keepAwake starts one idle spinner per CPU and returns how many are running
// and the function that stops them and waits for each to end.
func keepAwake() (n int, stop func()) {
	exe, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	type spinner struct {
		cmd   *exec.Cmd
		stdin io.Closer
	}
	var running []spinner
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		cmd := exec.Command(exe, "-idle-spin", strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			continue
		}
		if err := cmd.Start(); err != nil {
			continue
		}
		running = append(running, spinner{cmd, stdin})
	}
	return len(running), func() {
		for _, s := range running {
			_ = s.stdin.Close()
			_ = s.cmd.Process.Kill() // a SCHED_IDLE child may not get to see the EOF for a while
			_ = s.cmd.Wait()
		}
	}
}
