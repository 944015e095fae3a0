package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"compass/internal/serve"
	"compass/internal/telemetry"
)

// timingRT is an http.RoundTripper that records each request's round trip
// by endpoint, and — on a peer's client — how long the peer held a lease
// (from a granted acquire to the acked return).
type timingRT struct {
	base *http.Transport

	mu        sync.Mutex
	rtt       map[string][]float64 // endpoint -> seconds
	leaseFrom time.Time
	leased    time.Duration
}

func newTimingRT() *timingRT {
	return &timingRT{base: &http.Transport{MaxIdleConnsPerHost: 4}, rtt: map[string][]float64{}}
}

// endpoint names the API call a request makes.
func endpoint(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "submit"
	case path == "/v1/shard/leases":
		return "acquire"
	case path == "/v1/shard/leases/renew":
		return "renew"
	case path == "/v1/shard/leases/return":
		return "return"
	}
	return "other"
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	ep := endpoint(req.Method, req.URL.Path)
	t.mu.Lock()
	defer t.mu.Unlock()
	if ep != "other" {
		t.rtt[ep] = append(t.rtt[ep], end.Sub(start).Seconds())
	}
	if err == nil {
		switch {
		case ep == "acquire" && resp.StatusCode == http.StatusOK:
			t.leaseFrom = end
		case ep == "return" && !t.leaseFrom.IsZero() && (resp.StatusCode/100 == 2 || resp.StatusCode == http.StatusConflict):
			t.leased += end.Sub(t.leaseFrom)
			t.leaseFrom = time.Time{}
		}
	}
	return resp, err
}

// reset starts a fresh measurement window.
func (t *timingRT) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rtt = map[string][]float64{}
	t.leased = 0
}

func (t *timingRT) samples(ep string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.rtt[ep]...)
}

func (t *timingRT) leaseTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leased
}

// service is an in-process compassd: a Manager behind serve.Handler on a
// loopback listener, with peer loops leasing its coordinator jobs over
// HTTP, and one client that submits jobs and waits for their verdicts.
type service struct {
	dir      string
	mgr      *serve.Manager
	srv      *http.Server
	base     string
	client   *http.Client
	clientRT *timingRT
	peerRTs  []*timingRT
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

// servicePeers is the number of `compassd -join` peer loops.
const servicePeers = 2

// startService starts the service. stateDir "" runs jobs without
// checkpoints; otherwise it is created and removed again by close.
func startService(stateDir string, workers int) (*service, error) {
	s := &service{dir: stateDir}
	mgr, err := serve.NewManager(serve.Config{StateDir: stateDir, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.mgr = mgr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown()
		return nil, fmt.Errorf("service: %w", err)
	}
	s.srv = &http.Server{Handler: serve.Handler(mgr), ReadHeaderTimeout: 10 * time.Second}
	s.base = "http://" + ln.Addr().String()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	for i := 0; i < servicePeers; i++ {
		rt := newTimingRT()
		s.peerRTs = append(s.peerRTs, rt)
		// compassd -join defaults, with one exploration worker per peer.
		p := &serve.Peer{
			Base:    s.base,
			Name:    fmt.Sprintf("peer-%d", i+1),
			Client:  &http.Client{Transport: rt, Timeout: 10 * time.Second},
			Workers: 1,
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_, _ = p.Run(ctx) // returns nil once ctx is canceled
		}()
	}
	s.clientRT = newTimingRT()
	s.client = &http.Client{Transport: s.clientRT}
	if err := s.health(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) health() error {
	resp, err := s.client.Get(s.base + "/v1/healthz")
	if err != nil {
		return fmt.Errorf("service: healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service: healthz: %s", resp.Status)
	}
	return nil
}

// close stops the peers, the listener and the manager, waits for every
// goroutine it started, and removes the state directory.
func (s *service) close() error {
	s.stop()
	_ = s.srv.Close()
	s.wg.Wait()
	s.mgr.Shutdown()
	for _, rt := range append(s.peerRTs, s.clientRT) {
		rt.base.CloseIdleConnections()
	}
	if s.dir != "" {
		return os.RemoveAll(s.dir)
	}
	return nil
}

// jobTimeout bounds one job's submit-to-verdict wait.
const jobTimeout = 150 * time.Second

// runJob submits spec, follows the job's event stream until it ends, and
// returns the final job view and the job's final telemetry snapshot.
func (s *service) runJob(spec serve.JobSpec) (serve.JobView, *telemetry.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var view serve.JobView
	body, err := json.Marshal(spec)
	if err != nil {
		return view, nil, err
	}
	if err := s.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &view); err != nil {
		return view, nil, err
	}
	id := view.ID
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return view, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return view, nil, fmt.Errorf("%s events: %w", spec.Workload, err)
	}
	var last *telemetry.Snapshot
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var snap telemetry.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			resp.Body.Close()
			return view, nil, fmt.Errorf("%s events: %w", spec.Workload, err)
		}
		last = &snap
	}
	err = sc.Err()
	resp.Body.Close()
	if err != nil {
		return view, nil, fmt.Errorf("%s events: %w", spec.Workload, err)
	}
	if err := s.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &view); err != nil {
		return view, nil, err
	}
	if view.Status != serve.StatusDone {
		return view, nil, fmt.Errorf("%s: job ended %s: %s", spec.Workload, view.Status, view.Error)
	}
	if last == nil {
		return view, nil, fmt.Errorf("%s: event stream carried no snapshot", spec.Workload)
	}
	return view, last, nil
}

// call makes one JSON API request and decodes the response into out.
func (s *service) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// serviceJob is one entry of the service job mix.
type serviceJob struct {
	spec serve.JobSpec
	kind kind
	want string
}

// longJobs are sharded across the peers; they are the exhaustive
// explorations large enough for leasing to matter.
var longJobs = []serve.JobSpec{
	{Workload: "litmus/IRIW", POR: "off", Coordinator: true},
	{Workload: "litmus/STAR5", POR: "off", Coordinator: true},
	{Workload: "lib/msqueue", POR: "source", Refine: true, Coordinator: true},
	{Workload: "lib/deque", POR: "source", Refine: true, Coordinator: true},
}

// serviceMix is the job list of one pass: the `compassd -client` batch
// (every registry workload at client defaults: litmus exhaustive under
// source-DPOR, libraries random with refinement) with the sharded long
// jobs interleaved at even spacing.
func serviceMix(g golden, seed int64) ([]serviceJob, error) {
	var batch []serviceJob
	for i, name := range serve.WorkloadNames() {
		sp := serve.JobSpec{Workload: name}
		want := ""
		if strings.HasPrefix(name, "litmus/") {
			sp.POR = "source"
			w, err := g.want(strings.TrimPrefix(name, "litmus/"))
			if err != nil {
				return nil, err
			}
			want = w
		} else {
			sp.Mode = serve.ModeRandom
			sp.Refine = true
			sp.Seed = deriveSeed(seed, 1000+i)
			want = "PASS refine=agree"
		}
		batch = append(batch, serviceJob{spec: sp, kind: short, want: want})
	}
	var mix []serviceJob
	per := (len(batch) + len(longJobs) - 1) / len(longJobs)
	for i, sp := range longJobs {
		lo, hi := i*per, min((i+1)*per, len(batch))
		mix = append(mix, batch[lo:hi]...)
		want, err := g.want(strings.TrimPrefix(sp.Workload, "litmus/"))
		if err != nil {
			return nil, err
		}
		mix = append(mix, serviceJob{spec: sp, kind: long, want: want})
	}
	return mix, nil
}

// jobVerdict renders a finished job's verdict in the golden form.
func jobVerdict(v serve.JobView, snap *telemetry.Snapshot) (string, error) {
	r := v.Result
	if r == nil {
		return "", errors.New("no result")
	}
	if strings.HasPrefix(r.Workload, "litmus/") {
		return outcomeVerdict(r.Complete, r.Outcomes), nil
	}
	var rules []string
	if r.Report != nil {
		seen := map[string]bool{}
		for _, f := range r.Report.Failures {
			for _, vi := range f.Violations {
				if !seen[vi.Rule] {
					seen[vi.Rule] = true
					rules = append(rules, vi.Rule)
				}
			}
		}
		sort.Strings(rules)
	}
	lv := libVerdict(r.Complete, r.Passed, rules, snap.Refine.TracesChecked, snap.Refine.Disagreements)
	if r.Mode == serve.ModeRandom {
		// A random job is never "complete"; its known answer is the
		// judgement alone.
		_, lv, _ = strings.Cut(lv, ": ")
	}
	return lv, nil
}
