package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonProc is one consumelocald the benchmark spawned.
type daemonProc struct {
	cmd     *exec.Cmd
	base    string
	pid     int
	startMs float64
	exited  chan struct{}
	waitErr error
}

// logWatch receives the daemon's stderr: it finds the listening address
// and keeps the last lines for diagnostics.
type logWatch struct {
	mu    sync.Mutex
	buf   []byte
	tail  []string
	addrc chan string
}

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if strings.Contains(line, `msg="consumelocald listening"`) {
			for _, f := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					select {
					case l.addrc <- a:
					default:
					}
				}
			}
		}
		l.tail = append(l.tail, line)
		if len(l.tail) > 20 {
			l.tail = l.tail[1:]
		}
	}
	return len(p), nil
}

func (l *logWatch) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, "\n")
}

// startDaemon spawns consumelocald with default flags on a loopback
// port (durable when dataDir is set) and waits until /healthz answers.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemonProc, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	lw := &logWatch{addrc: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = lw
	// The daemon must not outlive a benchmark that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemonProc{cmd: cmd, pid: cmd.Process.Pid, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	var addr string
	select {
	case addr = <-lw.addrc:
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited during start: %v\n%s", d.waitErr, lw)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("daemon reported no address within 30s\n%s", lw)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	d.base = "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy within 30s: %v\n%s", err, lw)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.startMs = float64(time.Since(t0)) / float64(time.Millisecond)
	return d, nil
}

// stop asks the daemon to drain and exit, killing it if it does not,
// and waits until it has ended.
func (d *daemonProc) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(10 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	return errors.New("daemon ignored SIGTERM for 10s and was killed")
}

// scrape reads the daemon's /metrics, summing each family's series over
// their labels. Histogram _sum and _count lines keep their suffix.
func scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition, summing each name's
// series over their labels.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
