package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one wasod process started with default flags (plus a data dir
// and -fsync off for a durable workload), listening on a loopback port.
type server struct {
	cmd     *exec.Cmd
	addr    string
	dataDir string
	logFile *os.File
}

// freeAddr returns a loopback address with a port that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs wasod and waits until /healthz answers.
func startServer(bin, outDir string, durable bool) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	s := &server{addr: addr}
	args := []string{"-addr", addr}
	if durable {
		if s.dataDir, err = os.MkdirTemp(outDir, "data-"); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", s.dataDir, "-fsync", "off")
	}
	if s.logFile, err = os.Create(outDir + "/wasod.log"); err != nil {
		s.stop()
		return nil, err
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = s.logFile, s.logFile
	// wasod dies with the benchmark, even when the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		s.cmd = nil
		s.stop()
		return nil, fmt.Errorf("start wasod: %w", err)
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := hc.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	return nil, errors.New("wasod did not answer /healthz within 30s (see wasod.log)")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the process's user plus system CPU time.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks of 1/100 s.
	_, rest, _ := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100, errors.Join(err1, err2)
}

// stop kills the process, waits for it to exit and removes its data dir.
func (s *server) stop() {
	if s.cmd != nil && s.cmd.Process != nil {
		_ = s.cmd.Process.Kill() // a benchmark server holds nothing worth draining
		_ = s.cmd.Wait()         // the kill is the expected exit status
	}
	if s.logFile != nil {
		s.logFile.Close()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}
