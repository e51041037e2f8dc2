package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expt"
	"repro/internal/insertion"
	"repro/internal/mc"
	"repro/internal/serve"
)

// serveWhy: the only workload that crosses HTTP, the dispatch plane and
// the binary shard codec; cache-hit reads sit beside solver-heavy writes,
// so a serve change that helps one and costs the other shows.
const serveWhy = "coordinator plus two shard workers on loopback, two closed-loop clients mixing fresh and repeated inserts, yields and what-ifs: HTTP, dispatch and wire"

const (
	serveCircuit       = "s9234"
	serveInsertSamples = 400
	serveYieldChips    = 4000
	serveYieldPeriods  = 8
	serveClients       = 2 // as many as the 2-core reference machine has cores; run.sh gives them one P
	serveWorkers       = 2
	serveYieldSeeds    = 4
	serveRepeatWindow  = 32 // repeats draw from this many recent keys, well inside the plan LRU
	serveCheckInserts  = 48 // fresh inserts re-run in-process per run, evenly spread
)

type opKind int

const (
	opInsert opKind = iota // fresh /v1/insert: a plan-cache miss
	opRepeat               // /v1/insert of an earlier key: a plan-cache hit
	opYield                // /v1/yield: 3 plans × 8 periods × 4,000 chips
	opWhatIf               // /v1/prepare with a delay edit (SSTA cone)
)

var opNames = [...]string{"insert", "repeat", "yield", "whatif"}

// serveMix is the request list one pass replays, in seeded order: about
// 55% fresh inserts, 10% repeats, 30% yields and 5% what-ifs.
var serveMix = []struct {
	kind  opKind
	count int
}{{opInsert, 11}, {opRepeat, 2}, {opYield, 6}, {opWhatIf, 1}}

// serveOp is one request of the list and, after the pass, its outcome.
type serveOp struct {
	kind    opKind
	traced  bool
	insert  serve.InsertRequest
	yield   serve.YieldRequest
	prepare serve.PrepareRequest

	err       error
	clientMS  float64
	serverMS  float64
	insResp   *serve.InsertResponse
	yieldResp *serve.YieldResponse
	prepResp  *serve.PrepareResponse
}

// cluster is a coordinator and its shard workers, each an in-process
// serve.Server behind a loopback listener.
type cluster struct {
	coord   *serve.Server
	base    string
	workers []string
	all     []string
	servers []*http.Server
	wg      sync.WaitGroup
}

func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts every server down and waits for their serve loops.
func (c *cluster) close() {
	for _, srv := range c.servers {
		srv.Close()
	}
	c.wg.Wait()
}

// startCluster starts two workers and a coordinator sharding over them,
// installs the counting transport, and prepares the circuit on all three.
func startCluster(cl *serve.Client, st *shardStats, tr *tracer) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < serveWorkers; i++ {
		base, err := c.listen(serve.New(serve.Config{}).Handler())
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, base)
	}
	c.coord = serve.New(serve.Config{Workers: c.workers})
	for i, w := range c.workers {
		c.coord.Pool().WrapTransport(w, func(rt http.RoundTripper) http.RoundTripper {
			return &countingRT{base: rt, worker: i, st: st}
		})
	}
	base, err := c.listen(c.coord.Handler())
	if err != nil {
		c.close()
		return nil, err
	}
	c.base = base
	c.all = append(append([]string(nil), c.workers...), base)
	for _, b := range c.all {
		id := tr.begin("setup.prepare", -1, -1)
		_, err := clientFor(cl, b).Prepare(serve.PrepareRequest{Circuit: serve.CircuitSpec{Preset: serveCircuit}})
		tr.end(id)
		if err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// clientFor returns a copy of cl aimed at base, sharing its transport.
func clientFor(cl *serve.Client, base string) *serve.Client {
	c := *cl
	c.Base = base
	return &c
}

// shardStats counts the coordinator's range traffic to its workers.
type shardStats struct {
	mu       sync.Mutex
	tr       *tracer // set during traced passes
	rtts     []float64
	busy     [serveWorkers]float64
	out, in  int64
	requests int
}

func (s *shardStats) setTracer(tr *tracer) {
	s.mu.Lock()
	s.tr = tr
	s.mu.Unlock()
}

// take returns the counts gathered since the last take and resets them.
func (s *shardStats) take() (rtts []float64, busy [serveWorkers]float64, out, in int64, requests int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rtts, busy, out, in, requests = s.rtts, s.busy, s.out, s.in, s.requests
	s.rtts, s.busy, s.out, s.in, s.requests = nil, [serveWorkers]float64{}, 0, 0, 0
	return
}

func (s *shardStats) done(worker int, start time.Time, out, in int64) {
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	d := end.Sub(start)
	s.rtts = append(s.rtts, float64(d.Microseconds())/1000)
	s.busy[worker] += d.Seconds()
	s.out += max(0, out)
	s.in += in
	s.requests++
	s.tr.record("shard.range", -1, -1, start, end)
}

// countingRT wraps one worker's range transport (Pool.WrapTransport): it
// times each range request from send to the end of its response body and
// counts the bytes each way.
type countingRT struct {
	base   http.RoundTripper
	worker int
	st     *shardStats
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.st.done(c.worker, start, req.ContentLength, 0)
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, done: func(n int64) { c.st.done(c.worker, start, req.ContentLength, n) }}
	return resp, nil
}

type countingBody struct {
	rc   io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// serveInputs generates one run's requests from the seed.
type serveInputs struct {
	seed       uint64
	bench      *expt.Bench // in-process twin of the served bench, for the checks
	gates      []string    // gate names a what-if may edit
	plans      []insertion.Plan
	periods    []float64
	yieldSeeds []uint64
	recent     []serve.InsertRequest // keys a repeat may replay
	// planOf maps an insert key to the digest of its first served plan.
	planOf map[string]string
}

func (in *serveInputs) circuit() serve.CircuitSpec { return serve.CircuitSpec{Preset: serveCircuit} }

// ops builds pass p's request list.
func (in *serveInputs) ops(p int) []*serveOp {
	var ops []*serveOp
	for _, m := range serveMix {
		for j := 0; j < m.count; j++ {
			r := mix(in.seed, 10, uint64(p), uint64(m.kind), uint64(j))
			op := &serveOp{kind: m.kind}
			switch m.kind {
			case opInsert:
				k := 1 + float64(r%21)/20 // target_k in [1, 2]
				op.insert = serve.InsertRequest{Circuit: in.circuit(), TargetK: &k,
					Samples: serveInsertSamples, Seed: mix(r, 1)}
			case opRepeat:
				op.insert = in.recent[r%uint64(len(in.recent))]
			case opYield:
				qs := make([]serve.YieldQuery, len(in.plans))
				for i, pl := range in.plans {
					qs[i] = serve.YieldQuery{Plan: pl, Periods: in.periods}
				}
				op.yield = serve.YieldRequest{Circuit: in.circuit(), EvalSamples: serveYieldChips,
					Seed: in.yieldSeeds[r%serveYieldSeeds], Queries: qs}
			case opWhatIf:
				op.prepare = serve.PrepareRequest{Circuit: in.circuit(),
					WhatIf: []expt.Edit{{Node: in.gates[r%uint64(len(in.gates))], DeltaPS: 1 + float64(mix(r, 2)%10)}}}
			}
			ops = append(ops, op)
		}
	}
	// Seeded Fisher–Yates shuffle, so kinds interleave.
	for i := len(ops) - 1; i > 0; i-- {
		j := int(mix(in.seed, 11, uint64(p), uint64(i)) % uint64(i+1))
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// remember adds a pass's successful fresh inserts to the repeat window.
func (in *serveInputs) remember(ops []*serveOp) {
	for _, op := range ops {
		if op.kind == opInsert && op.err == nil {
			in.recent = append(in.recent, op.insert)
		}
	}
	if n := len(in.recent); n > serveRepeatWindow {
		in.recent = append([]serve.InsertRequest(nil), in.recent[n-serveRepeatWindow:]...)
	}
}

// do sends one request and records its outcome.
func (op *serveOp) do(cl *serve.Client, tr *tracer, opID int) {
	t0 := time.Now()
	id := tr.begin("serve."+opNames[op.kind], -1, opID)
	switch op.kind {
	case opInsert, opRepeat:
		op.insResp, op.err = cl.Insert(op.insert)
		if op.err == nil {
			op.serverMS = float64(op.insResp.ElapsedMS)
		}
	case opYield:
		op.yieldResp, op.err = cl.Yield(op.yield)
		if op.err == nil {
			op.serverMS = float64(op.yieldResp.ElapsedMS)
		}
	case opWhatIf:
		op.prepResp, op.err = cl.Prepare(op.prepare)
		if op.err == nil {
			op.serverMS = float64(op.prepResp.ElapsedMS)
		}
	}
	tr.end(id)
	op.clientMS = float64(time.Since(t0).Microseconds()) / 1000
}

// output returns the deterministic part of op's answer: everything but
// timings and cache flags.
func (op *serveOp) output() any {
	switch {
	case op.err != nil:
		return []string{opNames[op.kind], "error"}
	case op.insResp != nil:
		r := *op.insResp
		r.ElapsedMS, r.Cached = 0, false
		return r
	case op.yieldResp != nil:
		return op.yieldResp.Results
	default:
		r := *op.prepResp
		r.ElapsedMS, r.Cached = 0, false
		return r
	}
}

// replay sends ops through serveClients closed-loop clients: each sends
// its next request only when the previous one has answered.
func replay(cl *serve.Client, ops []*serveOp, tr *tracer, firstID int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(ops) {
					return
				}
				ops[j].do(cl, tr, firstID+j)
			}
		}()
	}
	wg.Wait()
}

// scrape reads the counters of a server's /metrics page.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: HTTP %d", base, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serveCounters are the server-side counters a traced pass reads.
type serveCounters struct {
	planHit, planMiss, popHit, popMiss, rejected float64
	hedges, hedgeWins, redispatched, local       int64
}

func readCounters(hc *http.Client, c *cluster) (serveCounters, error) {
	var sc serveCounters
	for _, b := range c.all {
		m, err := scrape(hc, b)
		if err != nil {
			return sc, err
		}
		sc.rejected += m["bufinsd_rejected_total"]
		if b == c.base {
			sc.planHit = m[`bufinsd_cache_hits_total{cache="plan"}`]
			sc.planMiss = m[`bufinsd_cache_misses_total{cache="plan"}`]
			sc.popHit = m[`bufinsd_cache_hits_total{cache="population"}`]
			sc.popMiss = m[`bufinsd_cache_misses_total{cache="population"}`]
		}
	}
	pc := &c.coord.Pool().C
	sc.hedges, sc.hedgeWins = pc.Hedges.Load(), pc.HedgeWins.Load()
	sc.redispatched, sc.local = pc.Redispatched.Load(), pc.Local.Load()
	return sc, nil
}

func (a serveCounters) minus(b serveCounters) serveCounters {
	return serveCounters{
		planHit: a.planHit - b.planHit, planMiss: a.planMiss - b.planMiss,
		popHit: a.popHit - b.popHit, popMiss: a.popMiss - b.popMiss, rejected: a.rejected - b.rejected,
		hedges: a.hedges - b.hedges, hedgeWins: a.hedgeWins - b.hedgeWins,
		redispatched: a.redispatched - b.redispatched, local: a.local - b.local,
	}
}

func (a *serveCounters) add(b serveCounters) {
	a.planHit += b.planHit
	a.planMiss += b.planMiss
	a.popHit += b.popHit
	a.popMiss += b.popMiss
	a.rejected += b.rejected
	a.hedges += b.hedges
	a.hedgeWins += b.hedgeWins
	a.redispatched += b.redispatched
	a.local += b.local
}

// runServe times passes that replay a seeded request list against a
// sharded coordinator, then re-computes the answers in-process (untimed)
// and requires them byte-identical.
func runServe(e *env) error {
	hc := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer hc.CloseIdleConnections()
	cl := &serve.Client{HTTP: hc}
	st := &shardStats{}
	var c *cluster
	release := func() {
		if c != nil {
			c.close()
			c = nil
		}
	}
	setupPlain, setupTraced, err := e.timeSetups(release, func(tr *tracer) (err error) {
		c, err = startCluster(cl, st, tr)
		return err
	})
	defer release()
	if err != nil {
		return err
	}
	cl = clientFor(cl, c.base)

	// Inputs: the in-process twin bench, three plans from the coordinator
	// (fixed flow seed, target_k 0/1/2) for the yield queries, and the
	// seeded yield universes.
	in := &serveInputs{seed: e.seed, planOf: map[string]string{}}
	benches, err := prepareBenches([]string{serveCircuit}, nil)
	if err != nil {
		return err
	}
	in.bench = benches[0]
	for _, g := range in.bench.Circuit.Gates() {
		in.gates = append(in.gates, in.bench.Circuit.Nodes[g].Name)
	}
	t0 := time.Now()
	for k := 0; k < 3; k++ {
		kf := float64(k)
		req := serve.InsertRequest{Circuit: in.circuit(), TargetK: &kf, Samples: serveInsertSamples}
		resp, err := cl.Insert(req)
		if err != nil {
			return fmt.Errorf("plan insert k=%d: %w", k, err)
		}
		in.plans = append(in.plans, resp.Plan)
		in.recent = append(in.recent, req)
		in.planOf[insertKey(req)] = digestOf(resp.Plan)
	}
	e.rep.addNamed("plan_s", "s", time.Since(t0).Seconds(), 3, "untimed: three plans for the yield requests")
	for i := 0; i < serveYieldPeriods; i++ {
		k := 4 * float64(i) / float64(serveYieldPeriods-1)
		in.periods = append(in.periods, in.bench.Period.Mu+(k-1)*in.bench.Period.Sigma)
	}
	for j := 0; j < serveYieldSeeds; j++ {
		in.yieldSeeds = append(in.yieldSeeds, mix(e.seed, 20, uint64(j)))
	}
	if e.tracing() {
		if err := e.probePrepare(benches); err != nil {
			return err
		}
		var us []float64
		for _, k := range []float64{1, 2} {
			v, err := sampleSolveUS(in.bench, in.bench.Period.Mu+k*in.bench.Period.Sigma, serveInsertSamples)
			if err != nil {
				return err
			}
			us = append(us, v)
		}
		e.layers.set("milp.sample_solve_us", mean(us), len(us))
	}

	// The twin bench serves the checks and the traced passes' realization
	// probe. An untraced run drops it while the loop runs, so the loop's
	// peak memory (reported untraced only) is the cluster's alone.
	twin := in.bench
	if !e.tracing() {
		twin = nil
	}
	in.bench, benches = nil, nil
	var all []*serveOp
	var cnt serveCounters
	var rtts []float64
	var busy [serveWorkers]float64
	var bytesOut, bytesIn int64
	var ranges int
	var realizeS float64
	realized := 0
	nextID := 0
	plain, traced, err := timeLoop(e.dur, e.tracing(), func(p int, isTraced bool) error {
		tr := e.traceFor(isTraced)
		ops := in.ops(p)
		var before serveCounters
		if isTraced {
			e.tracedPasses++
			st.take()
			st.setTracer(tr)
			var err error
			if before, err = readCounters(hc, c); err != nil {
				return err
			}
		}
		replay(cl, ops, tr, nextID)
		nextID += len(ops)
		in.remember(ops)
		all = append(all, ops...)
		if p == 0 {
			for _, op := range ops {
				e.rep.digestJSON(op.output())
			}
		}
		if !isTraced {
			return nil
		}
		st.setTracer(nil)
		after, err := readCounters(hc, c)
		if err != nil {
			return err
		}
		cnt.add(after.minus(before))
		r, b, o, i, n := st.take()
		rtts = append(rtts, r...)
		for w := range busy {
			busy[w] += b[w]
		}
		bytesOut += o
		bytesIn += i
		ranges += n
		for _, op := range ops {
			op.traced = true
			if op.kind == opYield {
				realizeS += realizeSeconds(twin.Graph, op.yield.Seed, serveYieldChips)
				realized += serveYieldChips
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if twin == nil {
		if benches, err = prepareBenches([]string{serveCircuit}, nil); err != nil {
			return err
		}
		twin = benches[0]
	}
	in.bench = twin
	if err := checkServe(e.rep, in, all); err != nil {
		return err
	}

	lat := map[opKind][]float64{}
	var tracedOps []*serveOp
	for _, op := range all {
		switch {
		case op.traced:
			tracedOps = append(tracedOps, op)
		case op.err == nil:
			lat[op.kind] = append(lat[op.kind], op.clientMS)
		}
	}
	e.rep.addTail("insert", lat[opInsert])
	e.rep.addTail("yield", lat[opYield])
	e.rep.addNamed("whatif_p50_ms", "ms", median(lat[opWhatIf]), len(lat[opWhatIf]), "")
	e.rep.addNamed("repeat_p50_ms", "ms", median(lat[opRepeat]), len(lat[opRepeat]), "plan-cache hits")
	e.rep.addNamed("ops_per_s", "1/s", float64(len(all)-len(tracedOps))/sum(plain.wall), len(all)-len(tracedOps),
		fmt.Sprintf("%d closed-loop clients", serveClients))
	if e.tracing() {
		np := e.tracedPasses
		n := float64(max(1, np))
		nOps := float64(max(1, len(tracedOps)))
		server := map[opKind][]float64{}
		var wait []float64
		var insertS, yieldS float64
		for _, op := range tracedOps {
			if op.err != nil || op.kind == opRepeat {
				continue // a repeat reports the original run's server time
			}
			server[op.kind] = append(server[op.kind], op.serverMS)
			wait = append(wait, op.clientMS-op.serverMS)
			switch op.kind {
			case opInsert:
				insertS += op.serverMS / 1000
			case opYield:
				yieldS += op.serverMS / 1000
			}
		}
		l := e.layers
		l.set("serve.server_ms.insert", median(server[opInsert]), len(server[opInsert]))
		l.set("serve.server_ms.yield", median(server[opYield]), len(server[opYield]))
		l.set("serve.server_ms.prepare", median(server[opWhatIf]), len(server[opWhatIf]))
		l.set("serve.wait_ms", median(wait), len(wait))
		l.set("serve.plan_lookups", cnt.planHit+cnt.planMiss, np)
		l.set("serve.plan_hit_ratio", cnt.planHit/(cnt.planHit+cnt.planMiss), int(cnt.planHit+cnt.planMiss))
		l.set("serve.pop_lookups", cnt.popHit+cnt.popMiss, np)
		l.set("serve.pop_hit_ratio", cnt.popHit/(cnt.popHit+cnt.popMiss), int(cnt.popHit+cnt.popMiss))
		l.set("serve.rejected", cnt.rejected/n, np)
		l.set("insertion.run_s", insertS/n, np)
		l.set("yield.eval_s", yieldS/n, np)
		l.set("mc.realize_us_per_chip", realizeS/float64(max(1, realized))*1e6, realized)
		l.set("mc.chips_realized", float64(realized)/n, np)
		l.set("shard.ranges_per_op", float64(ranges)/nOps, len(tracedOps))
		l.set("shard.range_rtt_ms", median(rtts), len(rtts))
		if m := mean(busy[:]); m > 0 {
			l.set("shard.imbalance", slices.Max(busy[:])/m, ranges)
		}
		l.set("shard.hedges", float64(cnt.hedges)/n, np)
		l.set("shard.hedge_wins", float64(cnt.hedgeWins)/n, np)
		l.set("shard.redispatched", float64(cnt.redispatched)/n, np)
		l.set("shard.local", float64(cnt.local)/n, np)
		l.set("wire.bytes_out_per_op", float64(bytesOut)/nOps, len(tracedOps))
		l.set("wire.bytes_in_per_op", float64(bytesIn)/nOps, len(tracedOps))
		e.finishOverhead(setupPlain, setupTraced, plain, traced)
	}
	e.finishE2E(setupPlain, plain)
	return nil
}

// checkServe requires every response to be 200 and re-computes answers
// in-process: a spread subset of fresh inserts through insertion.Run,
// every repeat against its original, every yield universe through
// serve.EvaluateQueries, and every what-if through Bench.WhatIf.
func checkServe(rep *report, in *serveInputs, ops []*serveOp) error {
	b := in.bench
	var fresh []*serveOp
	for _, op := range ops {
		rep.check(op.err == nil, "%s request failed: %v", opNames[op.kind], op.err)
		if op.err != nil {
			continue
		}
		switch op.kind {
		case opInsert:
			fresh = append(fresh, op)
			in.planOf[insertKey(op.insert)] = digestOf(op.insResp.Plan)
		}
	}
	for _, op := range ops {
		if op.err == nil && op.kind == opRepeat {
			want, ok := in.planOf[insertKey(op.insert)]
			rep.check(ok && digestOf(op.insResp.Plan) == want, "repeated insert %s: plan differs from the first answer", insertKey(op.insert))
		}
	}
	step := max(1, (len(fresh)+serveCheckInserts-1)/serveCheckInserts)
	for i := 0; i < len(fresh); i += step {
		op := fresh[i]
		req := op.insert
		res, err := insertion.Run(b.Graph, b.Placement, insertion.Config{
			T: b.Period.Mu + *req.TargetK*b.Period.Sigma, Samples: req.Samples, Seed: req.Seed})
		if err != nil {
			return fmt.Errorf("reference insert: %w", err)
		}
		rep.check(digestOf(op.insResp.Plan) == digestOf(res.Plan(b.Name)), "insert %s: served plan differs from in-process", insertKey(req))
	}
	yields := map[uint64]string{}
	for _, op := range ops {
		if op.err != nil || op.kind != opYield {
			continue
		}
		want, ok := yields[op.yield.Seed]
		if !ok {
			res, err := serve.EvaluateQueries(context.Background(), b.Graph, mc.New(b.Graph, op.yield.Seed), op.yield.EvalSamples, op.yield.Queries)
			if err != nil {
				return fmt.Errorf("reference yield: %w", err)
			}
			want = digestOf(res)
			yields[op.yield.Seed] = want
		}
		rep.check(digestOf(op.yieldResp.Results) == want, "yield seed %d: served results differ from in-process", op.yield.Seed)
	}
	for _, op := range ops {
		if op.err != nil || op.kind != opWhatIf {
			continue
		}
		wr, err := b.WhatIf(op.prepare.WhatIf)
		if err != nil {
			return fmt.Errorf("reference what-if: %w", err)
		}
		got := op.prepResp
		rep.check(got.WhatIf && got.Mu == wr.Period.Mu && got.Sigma == wr.Period.Sigma && got.HoldViolRate == wr.Period.HoldViolRate,
			"what-if %+v: served period stats differ from in-process", op.prepare.WhatIf)
	}
	return nil
}

func insertKey(r serve.InsertRequest) string {
	return fmt.Sprintf("k=%g/n=%d/seed=%d", *r.TargetK, r.Samples, r.Seed)
}
