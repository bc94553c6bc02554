package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one spawned server process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	exit chan error // receives cmd.Wait's result once, then closes
}

// fleet is the set of server processes one workload drives: one or more
// crserve backends, optionally behind one crshard coordinator.
type fleet struct {
	backends []*proc
	coord    *proc
}

// entry is the base URL clients send workload traffic to.
func (f *fleet) entry() string {
	if f.coord != nil {
		return f.coord.url
	}
	return f.backends[0].url
}

// servers lists every server process, backends first.
func (f *fleet) servers() []*proc {
	out := append([]*proc(nil), f.backends...)
	if f.coord != nil {
		out = append(out, f.coord)
	}
	return out
}

// backendURLs lists the backend base URLs in the order crshard was given.
func (f *fleet) backendURLs() []string {
	out := make([]string, len(f.backends))
	for i, b := range f.backends {
		out[i] = b.url
	}
	return out
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts one server binary listening on a fresh loopback port, with
// its output appended to a log file under logDir.
func spawn(binDir, logDir, name, bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port for %s: %w", name, err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	lf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: lf, exit: make(chan error, 1)}
	go func() {
		p.exit <- cmd.Wait()
		close(p.exit)
	}()
	return p, nil
}

// waitReady polls /readyz until it answers 200, the process exits, or the
// deadline passes.
func waitReady(ctx context.Context, c *http.Client, p *proc) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
		if resp, err := c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-p.exit:
			return fmt.Errorf("%s exited before becoming ready: %v", p.name, err)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// startFleet spawns nBackends crserve processes (and a crshard in front of
// them when coordinator is set) and waits until every one is ready.
func startFleet(ctx context.Context, c *http.Client, binDir, logDir string, nBackends int, coordinator bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < nBackends; i++ {
		p, err := spawn(binDir, logDir, fmt.Sprintf("crserve-%d", i), "crserve")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, p)
	}
	if coordinator {
		p, err := spawn(binDir, logDir, "crshard", "crshard", "-backends", strings.Join(f.backendURLs(), ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.coord = p
	}
	for _, p := range f.servers() {
		if err := waitReady(ctx, c, p); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop sends SIGTERM to every process, escalates to SIGKILL after a grace
// period, and returns once all of them have exited. Coordinator first, so
// it never probes a backend that is already gone.
func (f *fleet) stop() {
	procs := f.servers()
	for i := len(procs) - 1; i >= 0; i-- {
		p := procs[i]
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			p.cmd.Process.Kill()
		}
	}
	for _, p := range procs {
		select {
		case <-p.exit:
		case <-time.After(15 * time.Second):
			p.cmd.Process.Kill()
			<-p.exit
		}
		p.log.Close()
	}
}

// rssPeakMiB returns the highest peak resident set (VmHWM) of any server
// process of the fleet, in MiB.
func (f *fleet) rssPeakMiB() (float64, error) {
	peak := 0.0
	for _, p := range f.servers() {
		kb, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		if mb := float64(kb) / 1024; mb > peak {
			peak = mb
		}
	}
	return peak, nil
}

// vmHWM reads a process's peak resident set size in kB from /proc.
func vmHWM(pid int) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches a server's /metrics and parses the Prometheus text into
// sample name (with labels) → value.
func scrape(ctx context.Context, c *http.Client, p *proc) (map[string]float64, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/metrics", nil)
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds every sample whose name (labels included) starts with
// prefix, across the given scrapes.
func sumPrefix(scrapes []map[string]float64, prefix string) float64 {
	s := 0.0
	for _, m := range scrapes {
		for k, v := range m {
			if k == prefix || strings.HasPrefix(k, prefix+"{") {
				s += v
			}
		}
	}
	return s
}
