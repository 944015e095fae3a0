// Command compassd is the verification service: it runs litmus and
// library workloads as sharded, resumable jobs behind a versioned HTTP
// API (/v1; the unversioned paths remain as deprecated aliases).
//
// Server mode:
//
//	go run ./cmd/compassd -addr localhost:8723 -state /var/lib/compassd
//
// Jobs shard their decision-prefix frontier across worker goroutines and
// checkpoint atomically every -checkpoint-every executions; SIGTERM (or
// SIGINT) pauses every job at its next segment boundary and exits, and a
// restart with the same -state resumes each unfinished job from its last
// checkpoint — on any -workers count — with a final result identical to
// an uninterrupted run's.
//
//	curl -s localhost:8723/v1/workloads
//	curl -s -X POST localhost:8723/v1/jobs -d '{"workload":"litmus/SB","por":"source"}'
//	curl -s localhost:8723/v1/jobs/<id>
//	curl -sN localhost:8723/v1/jobs/<id>/events   # NDJSON telemetry stream
//
// Peer mode joins a coordinator and processes leased frontier segments
// until interrupted; jobs submitted with "coordinator": true shard
// across every joined peer, survive peer SIGKILL via lease expiry, and
// merge to a result byte-identical to a single-process run:
//
//	go run ./cmd/compassd -join http://coordinator:8723 -peer-name worker-1
//
// Client mode fans the whole corpus (or a -filter substring of it)
// across a running server and waits for the verdicts:
//
//	go run ./cmd/compassd -client -server http://localhost:8723 -por source
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"compass/internal/serve"
)

func main() {
	var (
		client = flag.Bool("client", false, "run as batch client against -server instead of serving")
		addr   = flag.String("addr", "localhost:8723", "server listen address")
		state  = flag.String("state", "", "checkpoint directory; empty disables checkpoints and resume")
		worker = flag.Int("workers", 0, "default exploration workers per job (0 = GOMAXPROCS)")
		every  = flag.Int("checkpoint-every", 0, "executions per segment between checkpoints (0 = default)")

		join     = flag.String("join", "", "peer mode: coordinator base URL to lease work from")
		peerName = flag.String("peer-name", "", "peer mode: name in the coordinator's lease table (default host:pid)")

		server  = flag.String("server", "http://localhost:8723", "client mode: server base URL")
		filter  = flag.String("filter", "", "client mode: only workloads containing this substring")
		por     = flag.String("por", "source", "client mode: POR mode for exhaustive jobs (off|source)")
		libMode = flag.String("lib-mode", serve.ModeRandom, "client mode: mode for library workloads (exhaustive|random)")
		execs   = flag.Int("n", 0, "client mode: executions per random library job (0 = default)")
		maxRuns = flag.Int("max-runs", 0, "client mode: run cap per exhaustive job (0 = default)")
		refine  = flag.Bool("refine", true, "client mode: enable the refinement oracle on library jobs")
	)
	flag.Parse()

	if *client {
		os.Exit(runClient(*server, *filter, *por, *libMode, *execs, *maxRuns, *refine))
	}
	if *join != "" {
		os.Exit(runPeer(*join, *peerName, *worker, *every))
	}
	os.Exit(runServer(*addr, *state, *worker, *every))
}

func runServer(addr, state string, workers, every int) int {
	m, err := serve.NewManager(serve.Config{
		StateDir:        state,
		Workers:         workers,
		CheckpointEvery: every,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	resumed, finished, errs := m.Resume()
	for _, err := range errs {
		log.Printf("resume: skipping checkpoint: %v", err)
	}
	if resumed+finished > 0 {
		log.Printf("resumed %d unfinished job(s), loaded %d finished", resumed, finished)
	}

	srv := &http.Server{Addr: addr, Handler: serve.Handler(m)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if state != "" {
		log.Printf("compassd listening on %s (state %s)", addr, state)
	} else {
		log.Printf("compassd listening on %s (no state dir: jobs are not resumable)", addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Print(err)
		return 1
	case s := <-sig:
		log.Printf("%s: pausing jobs at their next segment boundary", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(ctx)
	cancel()
	m.Shutdown()
	if state != "" {
		log.Printf("jobs checkpointed; restart with -state %s to resume", state)
	}
	return 0
}

// runPeer joins a coordinator and processes leases until interrupted.
func runPeer(base, name string, workers, every int) int {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("%s: finishing the current lease, then exiting", s)
		cancel()
	}()
	p := &serve.Peer{Base: base, Name: name, Workers: workers, PauseEvery: every}
	log.Printf("peer %s joining %s", name, base)
	n, err := p.Run(ctx)
	if err != nil {
		log.Printf("peer: %v", err)
		return 1
	}
	log.Printf("peer %s exiting: %d lease(s) completed", name, n)
	return 0
}

// runClient fans the registry across the service and reports verdicts.
func runClient(server, filter, por, libMode string, execs, maxRuns int, refine bool) int {
	names, err := fetchWorkloads(server)
	if err != nil {
		log.Print(err)
		return 1
	}
	var specs []serve.JobSpec
	for _, name := range names {
		if filter != "" && !strings.Contains(name, filter) {
			continue
		}
		sp := serve.JobSpec{Workload: name}
		if strings.HasPrefix(name, "litmus/") {
			sp.POR = por
			sp.MaxRuns = maxRuns
		} else {
			sp.Mode = libMode
			sp.Refine = refine
			if libMode == serve.ModeExhaustive {
				sp.POR = por
				sp.MaxRuns = maxRuns
			} else {
				sp.Executions = execs
			}
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		log.Printf("no workloads match filter %q", filter)
		return 1
	}

	ids := make(map[string]string, len(specs)) // job ID -> workload
	for _, sp := range specs {
		view, err := submitJob(server, sp)
		if err != nil {
			log.Printf("%s: %v", sp.Workload, err)
			return 1
		}
		ids[view.ID] = sp.Workload
		fmt.Printf("submitted %-24s %s\n", sp.Workload, view.ID)
	}

	fail := 0
	pending := make([]string, 0, len(ids))
	for id := range ids {
		pending = append(pending, id)
	}
	sort.Strings(pending)
	for len(pending) > 0 {
		next := pending[:0]
		for _, id := range pending {
			view, err := getJob(server, id)
			if err != nil {
				log.Printf("%s: %v", id, err)
				return 1
			}
			if view.Status == serve.StatusRunning {
				next = append(next, id)
				continue
			}
			verdict := "PASS"
			switch {
			case view.Status == serve.StatusFailed:
				verdict = "ERROR " + view.Error
				fail++
			case view.Result == nil || !view.Result.Passed:
				verdict = "FAIL"
				fail++
			}
			fmt.Printf("%-24s runs=%-7d complete=%-5v %s\n",
				ids[id], view.Runs, view.Result != nil && view.Result.Complete, verdict)
		}
		pending = next
		if len(pending) > 0 {
			time.Sleep(200 * time.Millisecond)
		}
	}
	if fail > 0 {
		fmt.Printf("%d of %d jobs failed\n", fail, len(ids))
		return 1
	}
	fmt.Printf("all %d jobs passed\n", len(ids))
	return 0
}

func fetchWorkloads(server string) ([]string, error) {
	resp, err := http.Get(server + "/v1/workloads")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/workloads: %s", resp.Status)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, err
	}
	return names, nil
}

func submitJob(server string, sp serve.JobSpec) (serve.JobView, error) {
	var view serve.JobView
	body, err := json.Marshal(sp)
	if err != nil {
		return view, err
	}
	resp, err := http.Post(server+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return view, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	return view, err
}

func getJob(server, id string) (serve.JobView, error) {
	var view serve.JobView
	resp, err := http.Get(server + "/v1/jobs/" + id)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	return view, err
}
