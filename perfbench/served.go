package main

// The served child process: preloading its directory, starting it with
// its default flags (only -dir, -addr, -addr-file and -seed are set),
// and reading its resource use from /proc.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/wire"
)

// bytesCodec stores []byte values verbatim, as cmd/served does.
var bytesCodec = repro.Codec[[]byte]{
	Append: func(dst []byte, v []byte) []byte { return append(dst, v...) },
	Decode: func(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil },
}

// preload writes dir/snapshot holding keys 0..w.keys-1 with their
// preload values, hashed under served's seed, as a checkpoint of a
// DurableMap would.
func preload(dir string, w *workload, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// A geometry sized for the key count avoids growing while loading;
	// the snapshot reloads at whatever geometry the reader chooses.
	m := repro.NewMapOf[string, []byte](repro.HasherFor[string](),
		repro.WithShards(16), repro.WithBuckets(w.keys/16/2), repro.WithSlots(4),
		repro.WithD(3), repro.WithSeed(hashSeed(seed)))
	var kb []byte
	var v [valueLen]byte
	for i := 0; i < w.keys; i++ {
		kb = appendKey(kb[:0], uint32(i), false)
		fillValue(&v, preloadVersion(seed, uint32(i)))
		if !m.Put(string(kb), append([]byte(nil), v[:]...)) {
			return fmt.Errorf("preload: map rejected key %d", i)
		}
	}
	f, err := os.Create(filepath.Join(dir, "snapshot"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := repro.SaveWith(bw, m, repro.CodecFor[string](), bytesCodec); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	// Write the snapshot back now, as a checkpoint would, so its
	// writeback does not land on a later run's fsyncs.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	m = nil
	runtime.GC()
	debug.FreeOSMemory() // hand the preload map back before served allocates its own
	return nil
}

// servedProc is one running served child.
type servedProc struct {
	cmd    *exec.Cmd
	addr   string
	log    string
	exited chan error // receives cmd.Wait's result once
}

// startServed launches served on dir and returns once it accepts a
// connection, with the time that took.
func startServed(bin, dir string, seed uint64) (*servedProc, time.Duration, error) {
	addrFile := dir + ".addr"
	os.Remove(addrFile)
	p := &servedProc{log: dir + ".log", exited: make(chan error, 1)}
	logf, err := os.Create(p.log)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	p.cmd = exec.Command(bin, "-dir", dir, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-seed", strconv.FormatUint(hashSeed(seed), 10))
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	p.cmd.Env = childEnv()
	// served must not outlive the benchmark, even when it is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { p.exited <- p.cmd.Wait() }()
	deadline := start.Add(120 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.addr = strings.TrimSpace(string(b))
			if c, err := wire.Dial(p.addr); err == nil {
				c.Close()
				return p, time.Since(start), nil
			}
		}
		select {
		case err := <-p.exited:
			return nil, 0, fmt.Errorf("served exited before accepting (%v): %s", err, tail(p.log))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("served did not accept within 120s: %s", tail(p.log))
		}
	}
}

// stop kills served and waits for it to exit. Nothing it holds needs a
// graceful shutdown: the benchmark discards its directory.
func (p *servedProc) stop() {
	p.cmd.Process.Kill()
	<-p.exited
}

// childEnv is the benchmark's environment without GOMAXPROCS, so served
// runs at its default of one P per CPU.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return env
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path) // best effort: the message is diagnostic
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// procCPU returns a process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks/s).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns VmHWM of /proc/<pid>/status in MiB ("self" for the
// benchmark itself).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// hostTicks returns this VM's CPU ticks from /proc/stat: those stolen
// by the hypervisor for other guests, and the total of user through
// steal.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64) // a malformed field reads as 0 ticks
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealFrac returns the share of CPU time stolen since (steal0, total0).
func stealFrac(steal0, total0 uint64) float64 {
	steal, total := hostTicks()
	return frac(float64(steal-steal0), float64(total-total0))
}
