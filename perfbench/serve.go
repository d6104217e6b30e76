package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"intrawarp/internal/compaction"
	"intrawarp/internal/kgen"
	"intrawarp/internal/serve"
)

// The serve workload is a closed loop: nproc clients, each with one
// keep-alive connection, send their next request only after the last
// reply has been read in full, because simd-serve's callers are scripts
// that wait for each reply or stream. Each pass runs against a fresh
// serve.Server (default Concurrency, GOMAXPROCS) behind one loopback
// httptest listener, so cold requests are cold in every pass.
const (
	serveMisses = 12 // cold functional /v1/run per client and pass
	serveHits   = 60 // repeated /v1/run per client and pass
	serveWarm   = 2  // repeated /v1/sweep per client and pass
	serveWindow = 4  // kgen kernels in each client's /v1/sweep
)

// Cold /v1/run kernels run through the parallel functional engine at
// default workers; small timed kernels run through the event core.
var (
	serveColdKernels  = []string{"bsearch", "urng", "kmeans", "hmm"}
	serveTimedKernels = []sizedName{{"bsearch", 256}, {"kmeans", 256}}
)

// serveReq is one planned request.
type serveReq struct {
	path string
	body []byte
	kind string // miss, timed, hit, sweep, spot
}

type serveBench struct {
	plans   [][]serveReq
	srv     *httptest.Server
	current atomic.Pointer[serve.Server]
	clients []*http.Client
	logger  *slog.Logger
	kgenMs  float64
	inputs  string
}

func setupServe(ctx context.Context, seed int64) (bench, error) {
	nClients := runtime.NumCPU()
	_, genTime, err := kgenWindow("mixed", seed, nClients*serveWindow)
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		plans:  servePlan(seed, nClients),
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		kgenMs: ms(genTime),
	}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.current.Load().ServeHTTP(w, r)
	}))
	for i := 0; i < nClients; i++ {
		b.clients = append(b.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	n := 0
	for _, p := range b.plans {
		n += len(p)
	}
	b.inputs = fmt.Sprintf("%d clients x %d requests: per client %d cold /v1/run over %v, %d timed over %v, %d hits, 1 cold + %d repeated /v1/sweep of %d kgen:mixed kernels, 1 sweep-cell spot check",
		nClients, n/nClients, serveMisses, serveColdKernels, len(serveTimedKernels), serveTimedKernels, serveHits, serveWarm, serveWindow)

	warm := serve.New(serve.Config{Logger: b.logger})
	b.current.Store(warm)
	defer warm.Close()
	data, _, err := b.post(ctx, b.clients[0], "/v1/run", mustJSON(serve.RunRequest{Workload: "bsearch"}))
	if err != nil {
		b.close()
		return nil, fmt.Errorf("serve warm-up: %w (%s)", err, data)
	}
	return b, nil
}

// servePlan derives every client's request sequence from the seed. Each
// client repeats only keys it wrote itself, so every planned hit is a
// cache hit and no request coalesces with another client's.
func servePlan(seed int64, nClients int) [][]serveReq {
	rng := rand.New(rand.NewSource(seed))
	used := map[string]bool{}
	unique := func(r serve.RunRequest) []byte {
		for {
			r.Policy = compaction.Policies[rng.Intn(len(compaction.Policies))].String()
			r.DCLinesPerCycle = 1 + rng.Intn(4)
			r.PerfectL3 = rng.Intn(2) == 1
			if b := mustJSON(r); !used[string(b)] {
				used[string(b)] = true
				return b
			}
		}
	}
	plans := make([][]serveReq, nClients)
	for c := range plans {
		var writes []serveReq
		for i := 0; i < serveMisses; i++ {
			writes = append(writes, serveReq{"/v1/run", unique(serve.RunRequest{Workload: serveColdKernels[i%len(serveColdKernels)]}), "miss"})
		}
		for _, k := range serveTimedKernels {
			writes = append(writes, serveReq{"/v1/run", unique(serve.RunRequest{Workload: k.name, Size: k.size, Timed: true}), "timed"})
		}
		window := kgen.RangeName("mixed", uint64(seed), c*serveWindow, (c+1)*serveWindow)
		sweep := serveReq{"/v1/sweep", mustJSON(serve.SweepRequest{Workloads: []string{window}}), "sweep"}
		writes = append(writes, sweep)
		rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })

		hitsAfter := make([]int, len(writes))
		for i := 0; i < serveHits; i++ {
			hitsAfter[rng.Intn(len(writes))]++
		}
		// The spot check asks /v1/run for one cell of the sweep; its bytes
		// must equal that cell's line in the stream.
		spot := serve.RunRequest{
			Workload:        kgen.Name("mixed", uint64(seed), c*serveWindow+rng.Intn(serveWindow)),
			Policy:          compaction.Policies[rng.Intn(len(compaction.Policies))].String(),
			DCLinesPerCycle: 1,
		}
		var seq []serveReq
		var written [][]byte
		pending, sweepAt := 0, 0
		for i, w := range writes {
			seq = append(seq, w)
			if w.kind == "sweep" {
				sweepAt = len(seq)
				seq = append(seq, serveReq{"/v1/run", mustJSON(spot), "spot"})
			} else {
				written = append(written, w.body)
			}
			for pending += hitsAfter[i]; pending > 0 && len(written) > 0; pending-- {
				seq = append(seq, serveReq{"/v1/run", written[rng.Intn(len(written))], "hit"})
			}
		}
		for i := 0; i < serveWarm; i++ {
			at := sweepAt + 1 + rng.Intn(len(seq)-sweepAt)
			seq = append(seq[:at], append([]serveReq{sweep}, seq[at:]...)...)
		}
		plans[c] = seq
	}
	return plans
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain request structs always marshal
	}
	return b
}

func (b *serveBench) post(ctx context.Context, cl *http.Client, path string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, resp.Header, fmt.Errorf("status %d", resp.StatusCode)
	}
	return data, resp.Header, nil
}

// clientResult is one client's share of a pass.
type clientResult struct {
	ops   []op
	lat   []sample
	instr int64
}

func (b *serveBench) runClient(ctx context.Context, c int, env *passEnv) clientResult {
	var res clientResult
	cells := map[string][]byte{} // this pass's cold sweep lines by cell request
	for i, rq := range b.plans[c] {
		start := time.Now()
		data, hdr, err := b.post(ctx, b.clients[c], rq.path, rq.body)
		d := time.Since(start)
		if ctx.Err() != nil {
			return res
		}
		env.heap.sample()
		class := rq.kind
		o := op{key: rq.path + " " + string(rq.body)}
		switch {
		case err != nil:
			o.err = fmt.Errorf("%w: %.200s", err, data)
		case rq.path == "/v1/run":
			if env.tr != nil {
				env.tr.serverTiming(hdr.Get("Server-Timing"))
			}
			o.digest = digestBytes(data)
			if hdr.Get("X-Cache") == "hit" {
				class = "hit"
			} else {
				var r struct {
					Report struct {
						Instructions int64 `json:"instructions"`
					} `json:"report"`
				}
				o.err = json.Unmarshal(data, &r)
				res.instr += r.Report.Instructions
			}
			if rq.kind == "spot" && !bytes.Equal(data, cells[string(rq.body)]) {
				o.err = fmt.Errorf("/v1/run bytes differ from the /v1/sweep line of the same cell")
			}
		default:
			var sum sweepSummary
			var instr int64
			o.digest, sum, instr, o.err = readSweep(data, cells)
			class = "sweep"
			if sum.CacheHits > 0 {
				class = "sweep-warm"
			}
			if sum.Executions > 0 {
				res.instr += instr / int64(len(compaction.Policies))
			}
		}
		res.ops = append(res.ops, o)
		res.lat = append(res.lat, sample{key: fmt.Sprintf("c%d/%d", c, i), class: class, d: d})
	}
	return res
}

// sweepSummary is the trailing line of a /v1/sweep stream.
type sweepSummary struct {
	Cells      int  `json:"cells"`
	CacheHits  int  `json:"cacheHits"`
	Executions int  `json:"executions"`
	Failed     int  `json:"failed"`
	Complete   bool `json:"complete"`
}

// readSweep checks an NDJSON sweep stream and digests its cell lines in
// an order that does not depend on completion order. Cell lines are
// recorded in cells by their canonical request.
func readSweep(data []byte, cells map[string][]byte) (string, sweepSummary, int64, error) {
	var sum sweepSummary
	var lines [][]byte
	var instr int64
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var l struct {
			Request *serve.RunRequest `json:"request"`
			Report  *struct {
				Instructions int64 `json:"instructions"`
			} `json:"report"`
			Sweep *sweepSummary `json:"sweep"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return "", sum, 0, fmt.Errorf("sweep line: %w", err)
		}
		switch {
		case l.Sweep != nil:
			sum = *l.Sweep
		case l.Request != nil && l.Report != nil:
			lines = append(lines, line)
			instr += l.Report.Instructions
			cells[string(mustJSON(l.Request))] = line
		default:
			return "", sum, 0, fmt.Errorf("sweep cell failed: %.200s", line)
		}
	}
	if err := sc.Err(); err != nil {
		return "", sum, 0, err
	}
	if !sum.Complete || sum.Failed != 0 || sum.Cells != len(lines) {
		return "", sum, 0, fmt.Errorf("sweep incomplete: %+v with %d cell lines", sum, len(lines))
	}
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return digestBytes(lines...), sum, instr, nil
}

func (b *serveBench) pass(ctx context.Context, env *passEnv) (*passResult, error) {
	s := serve.New(serve.Config{Logger: b.logger})
	b.current.Store(s)
	defer s.Close()
	results := make([]clientResult, len(b.plans))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range b.plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = b.runClient(ctx, c, env)
		}(c)
	}
	wg.Wait()
	p := &passResult{wall: time.Since(start), counts: map[string]float64{"kgen.generate_ms": b.kgenMs}}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range results {
		p.ops = append(p.ops, r.ops...)
		p.lat = append(p.lat, r.lat...)
		p.instr += r.instr
	}
	p.counts["eu.instructions"] = float64(p.instr)
	if env.tr != nil {
		if err := b.scrape(ctx, p.counts); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// scrape reads the pass's serve counters from /metrics.
func (b *serveBench) scrape(ctx context.Context, counts map[string]float64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.srv.URL+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := b.clients[0].Do(req)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[strings.TrimPrefix(name, "simd_serve_")] = v
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	counts["serve.cache_hit_ratio"] = ratio(m["cache_hits_total"], m["cache_hits_total"]+m["cache_misses_total"])
	counts["serve.coalesced"] = m["coalesced_total"]
	counts["serve.rejected"] = m["rejected_total"]
	counts["serve.sim_runs"] = m["simulations_total"]
	counts["trace.replays"] = m["sweep_replays_total"]
	counts["experiments.executions"] = m["sweep_executions_total"]
	return nil
}

func (b *serveBench) cost(passes []*passResult) float64 { return wallCost(passes) }

// latency is the median wait for a cold functional /v1/run, the request
// that reaches the parallel functional engine. It is a statistic of one
// request class, so it does not move with the invented shares of the mix.
func (b *serveBench) latency(passes []*passResult) float64 {
	return classLatency(passes, "miss", 0.5)
}
func (b *serveBench) describe() string { return b.inputs }

func (b *serveBench) close() {
	b.srv.Close()
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
	if s := b.current.Load(); s != nil {
		s.Close()
	}
}
