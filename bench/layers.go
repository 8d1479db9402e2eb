//go:build linux

package main

// layers.go is the per-layer half of the benchmark: it hosts the node
// configuration of bench/node in-process, replays the seeded request streams
// through each layer's public functions with spans around the calls, and
// times each layer alone. Together with node/main.go it is the only file of
// the benchmark that imports repro/internal/...; this is the exact API surface
// the benchmark depends on, so a refactor can see what it must keep:
//
//	core          New, Config{NodeID, Mode, CacheCapacity, Store, Costs},
//	              CostModel{SpawnCost}, StandAlone, Cooperative,
//	              Server.{Start, Close, ConnectPeer, ClusterAddr, ServeRequest,
//	              Files, CGI, Directory, Store, Cluster}
//	httpmsg       ReadRequest, WriteResponse, NewResponse, CanonicalKeyString,
//	              Request.{Path, Query, CacheKey}, Response.{StatusCode, Header, Body},
//	              Header.{Get, Set}
//	httpserver    New, Config{}, HandlerFunc, Server.{Serve, Addr, Close}
//	cacheability  CacheAll, Policy.Classify
//	fetchpipe     Chain, Stage, Defer, Result, Fetcher.Fetch
//	cgi           Program, Request, Result, Engine.{Register, Exec}
//	content       FileSet.{Add, Get}
//	directory     New, Entry, Directory.{Lookup, InsertLocal, ApplyInsert, TotalLen}
//	replacement   MustNew, LRU, Policy.{Insert, Access}
//	store         Store, NewMemory, OpenLog, LogOptions{}, PutWithMeta,
//	              Log.{Get, Delete, Dir, Close}, Memory.{Put, Get}
//	wire          WriteMessage, ReadMessage, Marshal, FetchReply, DirBatch, DirUpdate
//	cluster       Node.{Fetch, ReplicationStats, Dropped}
//	stats         NewPipelineStats

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/bench/payload"
	"repro/internal/cacheability"
	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/fetchpipe"
	"repro/internal/httpmsg"
	"repro/internal/httpserver"
	"repro/internal/replacement"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wire"
)

// program is bench/node's CGI program.
type program struct{}

func (program) Run(_ context.Context, req cgi.Request) (cgi.Result, error) {
	body, err := payload.ForQuery(req.Query)
	return cgi.Result{Status: 200, ContentType: "application/octet-stream", Body: body}, err
}

// newHost builds node i of w in-process, the same way bench/node's run does.
func newHost(w *workload, i int, dir string) (*core.Server, error) {
	var st store.Store = store.NewMemory()
	if w.logStore {
		l, _, err := store.OpenLog(filepath.Join(dir, "log"+strconv.Itoa(i+1)), store.LogOptions{})
		if err != nil {
			return nil, err
		}
		st = l
	}
	mode := core.StandAlone
	if w.cooperative {
		mode = core.Cooperative
	}
	srv := core.New(core.Config{
		NodeID:        uint32(i + 1),
		Mode:          mode,
		CacheCapacity: w.capacity,
		Store:         st,
		Costs:         core.CostModel{SpawnCost: time.Nanosecond},
	})
	srv.CGI().Register(cgiPath, program{})
	for _, f := range w.files {
		srv.Files().Add(f.path, "application/octet-stream", payload.Body(f.path, f.size))
	}
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// hosts is w's cluster in one process: the nodes talk over loopback TCP, the
// requests are handed to Server.ServeRequest.
type hosts struct {
	w    *workload
	srv  []*core.Server
	dir  string
	rd   bytes.Reader
	br   *bufio.Reader
	bw   *bufio.Writer
	raw  []byte
	sums []byte
}

func (h *hosts) close() {
	for _, s := range h.srv {
		s.Close()
	}
	os.RemoveAll(h.dir)
}

// startHosts starts, meshes, warms and verifies w's nodes, as set-up does for
// the node processes.
func startHosts(w *workload, scratch string) (*hosts, error) {
	dir, err := os.MkdirTemp(scratch, "trace-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	h := &hosts{w: w, dir: dir, br: bufio.NewReaderSize(nil, 8<<10), bw: bufio.NewWriterSize(io.Discard, 8<<10)}
	for i := 0; i < w.nodes; i++ {
		srv, err := newHost(w, i, dir)
		if err != nil {
			h.close()
			return nil, err
		}
		h.srv = append(h.srv, srv)
	}
	for i, s := range h.srv {
		for j, p := range h.srv {
			if i != j {
				if err := s.ConnectPeer(uint32(j+1), p.ClusterAddr()); err != nil {
					h.close()
					return nil, err
				}
			}
		}
	}
	if w.nodes > 1 {
		// Up and idle before warming; see waitIdle in bench/node.
		for _, s := range h.srv {
			last, quiet := s.Cluster().ReplicationStats(), time.Now()
			for time.Since(quiet) < 200*time.Millisecond {
				time.Sleep(20 * time.Millisecond)
				if now := s.Cluster().ReplicationStats(); now != last {
					last, quiet = now, time.Now()
				}
			}
		}
	}
	for _, q := range w.warm() {
		if _, err := h.serve(q, nil, 0); err != nil {
			h.close()
			return nil, fmt.Errorf("in-process warm: %w", err)
		}
	}
	deadline := time.Now().Add(convergeTimeout)
	for i, s := range h.srv {
		for s.Directory().TotalLen() < w.dirEntries {
			if time.Now().After(deadline) {
				h.close()
				return nil, fmt.Errorf("in-process node %d holds %d of %d directory entries", i+1, s.Directory().TotalLen(), w.dirEntries)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, q := range w.verify() {
		if _, err := h.serve(q, nil, 0); err != nil {
			h.close()
			return nil, fmt.Errorf("in-process verify: %w", err)
		}
	}
	return h, nil
}

// served is what one replayed request cost and produced.
type served struct {
	class             int
	read, core, write time.Duration
	req               *httpmsg.Request
	resp              *httpmsg.Response
}

// serve runs request q through node q.node the way a connection would:
// httpmsg.ReadRequest on the exact bytes the load generator sends,
// Server.ServeRequest, httpmsg.WriteResponse into a bufio.Writer over
// io.Discard. With spans != nil the three calls are children of a root span.
// The response is verified like any other.
func (h *hosts) serve(q probe, spans *spanLog, reqID int64) (served, error) {
	var out served
	h.raw = h.w.catalog.appendRequest(h.raw[:0], q.id)
	h.rd.Reset(h.raw)
	h.br.Reset(&h.rd)

	t0 := time.Now()
	req, err := httpmsg.ReadRequest(h.br)
	t1 := time.Now()
	if err != nil {
		return out, err
	}
	resp := h.srv[q.node].ServeRequest(context.Background(), req)
	t2 := time.Now()
	if err := httpmsg.WriteResponse(h.bw, resp); err != nil {
		return out, err
	}
	if err := h.bw.Flush(); err != nil {
		return out, err
	}
	t3 := time.Now()

	out = served{read: t1.Sub(t0), core: t2.Sub(t1), write: t3.Sub(t2), req: req, resp: resp}
	switch resp.Header.Get("X-Swala-Cache") {
	case "":
		out.class = classNone
	case "local":
		out.class = classLocal
	case "remote":
		out.class = classRemote
	default:
		out.class = classOther
	}
	r := reply{status: resp.StatusCode, class: out.class, size: len(resp.Body), sum: payload.Sum(resp.Body)}
	if err := check(h.w.catalog, q.class, q.id, r, 0, &h.sums); err != nil {
		return out, err
	}
	if spans != nil {
		root := spans.add("request", 0, reqID, t0, t3)
		spans.add("httpmsg.read_request", root, reqID, t0, t1)
		spans.add("core.serve", root, reqID, t1, t2)
		spans.add("httpmsg.write_response", root, reqID, t2, t3)
	}
	return out, nil
}

// scratchState is what the destructive shadow calls run against: a log
// store and a directory of insert_mix's shape, never the live ones.
type scratchState struct {
	log   *store.Log
	local *directory.Directory // capacity 4096, LRU: InsertLocal evicts
	peer  *directory.Directory // receives ApplyInsert from "node 2"
}

func newScratch(dir string, capacity int) (*scratchState, error) {
	l, _, err := store.OpenLog(dir, store.LogOptions{})
	if err != nil {
		return nil, err
	}
	return &scratchState{
		log:   l,
		local: directory.New(1, capacity, replacement.MustNew(replacement.LRU)),
		peer:  directory.New(1, capacity, replacement.MustNew(replacement.LRU)),
	}, nil
}

// timed runs fn as a child span of parent and returns its duration.
func timed(spans *spanLog, name string, parent int, reqID int64, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	spans.add(name, parent, reqID, t0, t1)
	return t1.Sub(t0)
}

// replayed collects, per stream, what the ledger needs from the spans.
type replayed struct {
	serve [numClasses][]int64 // core.serve by class
	glue  [numClasses][]int64 // core.serve minus its shadow children
	rsw   []int64             // read_request + serve + write_response
}

// replay pushes ids through h single-threaded. Each request is a root span
// with three children, followed by a "shadow" span whose children time the
// same key against the same live objects through public accessors; the
// destructive calls of a miss (Put, InsertLocal, ApplyInsert) run on sc.
func (h *hosts) replay(ids []uint32, spans *spanLog, reqBase int64, sc *scratchState) (*replayed, error) {
	policy := cacheability.CacheAll(10 * time.Minute) // core.New's default policy
	ctx := context.Background()
	out := &replayed{}
	var frame bytes.Reader
	for i, id := range ids {
		reqID := reqBase + int64(i)
		node := h.w.target[i%2]
		s, err := h.serve(probe{node, id, h.w.wantClass}, spans, reqID)
		if err != nil {
			return nil, fmt.Errorf("traced replay of %s: %w", h.w.name, err)
		}
		srv := h.srv[node]
		path, query, key := s.req.Path, s.req.Query, s.req.CacheKey()

		sh0 := time.Now()
		shadow := spans.add("shadow", 0, reqID, sh0, sh0) // end patched below
		var children time.Duration
		if len(h.w.files) > 0 {
			children += timed(spans, "content.get", shadow, reqID, func() { srv.Files().Get(path) })
		} else {
			children += timed(spans, "cacheability.classify", shadow, reqID, func() { policy.Classify(path, query) })
			var e directory.Entry
			children += timed(spans, "directory.lookup", shadow, reqID, func() { e, _ = srv.Directory().Lookup(key, time.Now()) })
			switch s.class {
			case classLocal:
				children += timed(spans, "store.get", shadow, reqID, func() { srv.Store().Get(key) })
			case classRemote:
				children += timed(spans, "cluster.fetch", shadow, reqID, func() { srv.Cluster().Fetch(ctx, e.Owner, key) })
				reply := &wire.FetchReply{Seq: 1, OK: true, ContentType: "application/octet-stream", Body: s.resp.Body}
				timed(spans, "wire.write_message", shadow, reqID, func() { wire.WriteMessage(io.Discard, reply) })
				frame.Reset(wire.Marshal(reply))
				timed(spans, "wire.read_message", shadow, reqID, func() { wire.ReadMessage(&frame) })
			case classNone:
				creq := cgi.Request{Method: "GET", Path: path, Query: query}
				timed(spans, "cgi.exec", shadow, reqID, func() { srv.CGI().Exec(ctx, creq) })
				now := time.Now()
				entry := directory.Entry{Key: key, Size: int64(len(s.resp.Body)), Inserted: now, Expires: now.Add(10 * time.Minute)}
				timed(spans, "store.put", shadow, reqID, func() {
					store.PutWithMeta(sc.log, key, "application/octet-stream", s.resp.Body, time.Microsecond, entry.Expires)
				})
				var evicted []string
				timed(spans, "directory.insert_local", shadow, reqID, func() { evicted = sc.local.InsertLocal(entry, now) })
				timed(spans, "store.delete", shadow, reqID, func() {
					for _, k := range evicted {
						sc.log.Delete(k)
					}
				})
				entry.Owner = 2
				timed(spans, "directory.apply_insert", shadow, reqID, func() { sc.peer.ApplyInsert(entry, now) })
			}
		}
		spans.setEnd(shadow, time.Now())

		out.serve[s.class] = append(out.serve[s.class], int64(s.core))
		out.glue[s.class] = append(out.glue[s.class], int64(s.core-children))
		out.rsw = append(out.rsw, int64(s.read+s.core+s.write))
	}
	return out, nil
}

// medianNs is the median of v as a float, 0 when v is empty.
func medianNs(v []int64) float64 { return float64(percentile(sortedCopy(v), 0.5)) }

// timeOp calls fn n times in five batches and returns the median batch's
// mean ns per call and the allocations per call over all of them.
func timeOp(n int, fn func(i int)) (ns, allocs float64) {
	const batches = 5
	per := max(n/batches, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	means := make([]float64, batches)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := b * per; i < (b+1)*per; i++ {
			fn(i)
		}
		means[b] = float64(time.Since(start)) / float64(per)
	}
	runtime.ReadMemStats(&after)
	return median(means), float64(after.Mallocs-before.Mallocs) / float64(batches*per)
}

// deferStage and serveStage make fetchpipe.chain_ns's chain: three stages
// that defer and one that serves, the shape of mem → local → remote → origin.
type deferStage struct{}

func (deferStage) Name() string { return "defer" }
func (deferStage) Fetch(context.Context, string, any) (fetchpipe.Result, error) {
	return fetchpipe.Defer(nil)
}

type serveStage struct{ body []byte }

func (serveStage) Name() string { return "serve" }
func (s serveStage) Fetch(context.Context, string, any) (fetchpipe.Result, error) {
	return fetchpipe.Result{Status: 200, Body: s.body, Source: "local"}, nil
}

func hitKey(k int) string {
	return httpmsg.CanonicalKeyString("GET", cgiPath, "k="+strconv.Itoa(k)+"&s="+strconv.Itoa(hitSize(k)))
}

// ledger runs the traced replay of all four streams and the single-layer
// timings, and sets every per-layer metric that is not sampled from outside.
// It returns, per workload, the median of read_request + serve +
// write_response in ns, for loadgen.transport_residual_us.
func (e *env) ledger(o options, spans *spanLog, r *result) (map[string]float64, error) {
	dir, err := os.MkdirTemp(e.scratch, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sc, err := newScratch(filepath.Join(dir, "scratch"), 4096)
	if err != nil {
		return nil, err
	}
	defer sc.log.Close()
	ctx := context.Background()
	set := func(name string, v float64, unit string) { r.set(name, v, unit) }

	// --- traced replay, one stream after the other ---
	rsw := map[string]float64{}
	var remote, mix *hosts
	defer func() {
		for _, h := range []*hosts{remote, mix} {
			if h != nil {
				h.close()
			}
		}
	}()
	for wi, w := range workloads() {
		h, err := startHosts(w, dir)
		if err != nil {
			return nil, err
		}
		ids := w.gen(rand.New(rand.NewSource(o.seed)), o.replay)
		rep, err := h.replay(ids, spans, int64(wi+1)*1_000_000, sc)
		if err != nil {
			h.close()
			return nil, err
		}
		rsw[w.name] = medianNs(rep.rsw)
		serveAllocs := func(class string, id func(i int) uint32) {
			reqs := make([]*httpmsg.Request, 2000)
			for i := range reqs {
				reqs[i] = httpmsg.NewRequest("GET", w.catalog.uri(id(i)))
			}
			_, a := timeOp(len(reqs), func(i int) { h.srv[w.target[i%2]].ServeRequest(ctx, reqs[i]) })
			set("core.serve_allocs."+class, a, "count")
		}
		fromStream := func(i int) uint32 { return ids[i%len(ids)] }
		switch w.name {
		case "static_webstone":
			set("core.serve_ns.static", medianNs(rep.serve[classNone]), "ns")
			serveAllocs("static", fromStream)
			h.close()
		case "local_hit":
			set("core.serve_ns.local", medianNs(rep.serve[classLocal]), "ns")
			set("core.glue_ns.local", medianNs(rep.glue[classLocal]), "ns")
			serveAllocs("local", fromStream)
			ns, _ := timeOp(5000, func(i int) {
				h.srv[0].CGI().Exec(ctx, cgi.Request{Method: "GET", Path: cgiPath, Query: "k=1&s=2048"})
			})
			set("cgi.exec_ns", ns, "ns")
			h.close()
		case "remote_hit":
			set("core.serve_ns.remote", medianNs(rep.serve[classRemote]), "ns")
			set("core.glue_ns.remote", medianNs(rep.glue[classRemote]), "ns")
			serveAllocs("remote", fromStream)
			remote = h
		case "insert_mix":
			set("core.serve_ns.miss", medianNs(rep.serve[classNone]), "ns")
			// Keys the stream never reaches: every one is a miss.
			fresh := uint32(mixWarmKeys(w.capacity) + 2*o.replay)
			serveAllocs("miss", func(i int) uint32 { return fresh + uint32(i) })
			mix = h
		}
	}

	// --- httpmsg ---
	raw := httpGet(nil, cgiPath+"?k=1&s=2048")
	var rd bytes.Reader
	br := bufio.NewReaderSize(nil, 8<<10)
	ns, allocs := timeOp(20000, func(int) {
		rd.Reset(raw)
		br.Reset(&rd)
		httpmsg.ReadRequest(br)
	})
	set("httpmsg.read_request_ns", ns, "ns")
	set("httpmsg.read_request_allocs", allocs, "count")
	bw := bufio.NewWriterSize(io.Discard, 8<<10)
	resp := httpmsg.NewResponse(200)
	resp.Header.Set("Content-Type", "application/octet-stream")
	resp.Header.Set("X-Swala-Cache", "local")
	resp.Body = payload.Body("2k", 2048)
	ns, allocs = timeOp(20000, func(int) {
		httpmsg.WriteResponse(bw, resp)
		bw.Flush()
	})
	set("httpmsg.write_response_ns", ns, "ns")
	set("httpmsg.write_response_allocs", allocs, "count")
	resp.Body = payload.Body("1m", 1<<20)
	ns, _ = timeOp(500, func(int) {
		httpmsg.WriteResponse(bw, resp)
		bw.Flush()
	})
	set("httpmsg.write_response_1m_ns", ns, "ns")

	// --- httpserver: a constant 2 KiB handler, one connection, loopback TCP ---
	if err := nullServer(r); err != nil {
		return nil, err
	}

	// --- cacheability, fetchpipe ---
	policy := cacheability.CacheAll(10 * time.Minute)
	ns, _ = timeOp(100000, func(int) { policy.Classify(cgiPath, "k=1&s=2048") })
	set("cacheability.classify_ns", ns, "ns")
	chain := fetchpipe.Chain(stats.NewPipelineStats(), deferStage{}, deferStage{}, deferStage{}, serveStage{resp.Body})
	ns, _ = timeOp(100000, func(int) { chain.Fetch(ctx, "k") })
	set("fetchpipe.chain_ns", ns, "ns")

	// --- directory, replacement: 4096 local and 4096 peer entries ---
	d := directory.New(1, hitKeys, replacement.MustNew(replacement.LRU))
	lru := replacement.MustNew(replacement.LRU)
	now := time.Now()
	keys, peerKeys := make([]string, hitKeys), make([]string, hitKeys)
	for k := range keys {
		keys[k], peerKeys[k] = hitKey(k), "GET "+cgiPath+"?k=p"+strconv.Itoa(k)+"&s=2048"
		d.InsertLocal(directory.Entry{Key: keys[k], Size: int64(hitSize(k)), Inserted: now, Expires: now.Add(time.Hour)}, now)
		d.ApplyInsert(directory.Entry{Key: peerKeys[k], Owner: 2, Size: 2048, Expires: now.Add(time.Hour)}, now)
		lru.Insert(keys[k], replacement.Meta{Size: int64(hitSize(k))})
	}
	ns, _ = timeOp(100000, func(i int) { d.Lookup(keys[i%hitKeys], now) })
	set("directory.lookup_ns", ns, "ns")
	ns, _ = timeOp(100000, func(i int) { d.Lookup(peerKeys[i%hitKeys], now) })
	set("directory.lookup_remote_ns", ns, "ns")
	ns, _ = timeOp(100000, func(i int) { lru.Access(keys[(i*7)%hitKeys]) })
	set("replacement.lru_touch_ns", ns, "ns")
	evictions := 0
	freshKeys := make([]string, 20000)
	for i := range freshKeys {
		freshKeys[i] = "GET /fresh?" + strconv.Itoa(i)
	}
	ns, _ = timeOp(len(freshKeys), func(i int) {
		evictions += len(d.InsertLocal(directory.Entry{Key: freshKeys[i], Size: 2048, Inserted: now, Expires: now.Add(time.Hour)}, now))
	})
	set("directory.insert_local_ns", ns, "ns")
	set("directory.evictions_per_insert", float64(evictions)/float64(len(freshKeys)), "count")
	ns, _ = timeOp(len(freshKeys), func(i int) {
		d.ApplyInsert(directory.Entry{Key: freshKeys[i], Owner: 2, Size: 2048, Expires: now.Add(time.Hour)}, now)
	})
	set("directory.apply_insert_ns", ns, "ns")

	// --- store ---
	if err := storeLayer(filepath.Join(dir, "store"), o, keys, r); err != nil {
		return nil, err
	}

	// --- wire ---
	body2k, body32k := payload.Body("2k", 2<<10), payload.Body("32k", 32<<10)
	reply2k := &wire.FetchReply{Seq: 1, OK: true, ContentType: "application/octet-stream", Body: body2k}
	frame2k := wire.Marshal(reply2k)
	frame32k := wire.Marshal(&wire.FetchReply{Seq: 1, OK: true, ContentType: "application/octet-stream", Body: body32k})
	ns, _ = timeOp(50000, func(int) { wire.WriteMessage(io.Discard, reply2k) })
	set("wire.write_fetch_reply_ns.2k", ns, "ns")
	ns, allocs = timeOp(50000, func(int) {
		rd.Reset(frame2k)
		wire.ReadMessage(&rd)
	})
	set("wire.read_fetch_reply_ns.2k", ns, "ns")
	set("wire.read_fetch_reply_allocs", allocs, "count")
	ns, _ = timeOp(10000, func(int) {
		rd.Reset(frame32k)
		wire.ReadMessage(&rd)
	})
	set("wire.read_fetch_reply_ns.32k", ns, "ns")
	batch := &wire.DirBatch{Owner: 1, Version: 64}
	for i := 0; i < 64; i++ {
		batch.Updates = append(batch.Updates, wire.DirUpdate{Owner: 1, Key: keys[i], Size: 2048, ExecTime: time.Millisecond, Expires: now.Add(time.Hour)})
	}
	batchFrame := wire.Marshal(batch)
	ns, _ = timeOp(5000, func(int) { wire.WriteMessage(io.Discard, batch) })
	set("wire.dirbatch_encode_ns_per_update", ns/64, "ns")
	ns, _ = timeOp(5000, func(int) {
		rd.Reset(batchFrame)
		wire.ReadMessage(&rd)
	})
	set("wire.dirbatch_decode_ns_per_update", ns/64, "ns")

	// --- cluster: node 2 fetches from node 1 over loopback TCP ---
	n2 := remote.srv[1].Cluster()
	ns, allocs = timeOp(3000, func(int) { n2.Fetch(ctx, 1, keys[1]) })
	set("cluster.fetch_rtt_us.2k", ns/1e3, "us")
	set("cluster.fetch_allocs", allocs, "count")
	ns, _ = timeOp(1500, func(int) { n2.Fetch(ctx, 1, keys[8]) })
	set("cluster.fetch_rtt_us.32k", ns/1e3, "us")

	// Visibility: an insert at node 1 until node 2's Lookup sees it.
	a, b := mix.srv[0], mix.srv[1]
	lags := make([]int64, 0, 200)
	for i := 0; i < cap(lags); i++ {
		key := "GET /visible?" + strconv.Itoa(i)
		t := time.Now()
		a.Directory().InsertLocal(directory.Entry{Key: key, Size: 1, Inserted: t, Expires: t.Add(time.Minute)}, t)
		for {
			if _, ok := b.Directory().Lookup(key, t); ok {
				break
			}
			if time.Since(t) > time.Second {
				return nil, fmt.Errorf("cluster.visibility_lag_us: insert %d not visible at the peer after 1s", i)
			}
			runtime.Gosched()
		}
		lags = append(lags, int64(time.Since(t)))
		time.Sleep(200 * time.Microsecond) // let the broadcast queue drain: one insert per batch
	}
	set("cluster.visibility_lag_us", medianNs(lags)/1e3, "us")
	set("cluster.dropped_updates", float64(a.Cluster().Dropped()+b.Cluster().Dropped()), "count")
	return rsw, nil
}

// nullServer measures httpserver alone: a constant 2 KiB handler behind
// httpserver.New, one connection of the benchmark's own client.
func nullServer(r *result) error {
	body := payload.Body("null", 2048)
	srv := httpserver.New(httpserver.HandlerFunc(func(context.Context, *httpmsg.Request) *httpmsg.Response {
		resp := httpmsg.NewResponse(200)
		resp.Header.Set("Content-Type", "application/octet-stream")
		resp.Body = body
		return resp
	}), httpserver.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Serve(l)
	defer srv.Close()
	c, err := dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.close()
	req := httpGet(nil, "/null")
	var failed error
	rtts := make([]int64, 0, 5000)
	_, allocs := timeOp(cap(rtts), func(int) {
		t := time.Now()
		rep, err := c.roundTrip(req, 0)
		rtts = append(rtts, int64(time.Since(t)))
		if err == nil && (rep.status != 200 || rep.size != len(body)) {
			err = fmt.Errorf("status %d, %d bytes", rep.status, rep.size)
		}
		if err != nil && failed == nil {
			failed = err
		}
	})
	if failed != nil {
		return fmt.Errorf("httpserver null handler: %w", failed)
	}
	r.set("httpserver.null_rtt_us", medianNs(rtts)/1e3, "us")
	r.set("httpserver.null_allocs_per_req", allocs, "count")
	return nil
}

// storeLayer times the log store and the memory store alone, and measures
// the log's write and space amplification over insert_mix's key stream.
func storeLayer(dir string, o options, keys []string, r *result) error {
	expires := time.Now().Add(10 * time.Minute)
	bodies := map[int][]byte{2 << 10: payload.Body("2k", 2<<10), 32 << 10: payload.Body("32k", 32<<10)}

	// Reads: the 4096 keys of local_hit.
	l, _, err := store.OpenLog(filepath.Join(dir, "read"), store.LogOptions{})
	if err != nil {
		return err
	}
	defer l.Close()
	mem := store.NewMemory()
	var small, large []string
	for k, key := range keys {
		if err := store.PutWithMeta(l, key, "application/octet-stream", bodies[hitSize(k)], time.Microsecond, expires); err != nil {
			return err
		}
		if hitSize(k) == 2<<10 {
			small = append(small, key)
			mem.Put(key, "application/octet-stream", bodies[2<<10])
		} else {
			large = append(large, key)
		}
	}
	var failed error
	get := func(s store.Store, ks []string) func(int) {
		return func(i int) {
			if _, _, err := s.Get(ks[(i*13)%len(ks)]); err != nil && failed == nil {
				failed = err
			}
		}
	}
	ns, allocs := timeOp(20000, get(l, small))
	r.set("store.log_get_ns.2k", ns, "ns")
	r.set("store.log_get_allocs", allocs, "count")
	ns, _ = timeOp(5000, get(l, large))
	r.set("store.log_get_ns.32k", ns, "ns")
	ns, _ = timeOp(50000, get(mem, small))
	r.set("store.mem_get_ns", ns, "ns")

	// Writes: fresh 2 KiB keys, then their deletion.
	wl, _, err := store.OpenLog(filepath.Join(dir, "write"), store.LogOptions{})
	if err != nil {
		return err
	}
	defer wl.Close()
	putKeys := make([]string, 4000)
	for i := range putKeys {
		putKeys[i] = "GET /put?" + strconv.Itoa(i)
	}
	ns, allocs = timeOp(len(putKeys), func(i int) {
		if err := store.PutWithMeta(wl, putKeys[i], "application/octet-stream", bodies[2<<10], time.Microsecond, expires); err != nil && failed == nil {
			failed = err
		}
	})
	r.set("store.log_put_ns.2k", ns, "ns")
	r.set("store.log_put_allocs", allocs, "count")
	ns, _ = timeOp(len(putKeys), func(i int) {
		if err := wl.Delete(putKeys[i]); err != nil && failed == nil {
			failed = err
		}
	})
	r.set("store.log_delete_ns", ns, "ns")

	// Amplification: insert_mix's fresh keys into a 4096-entry LRU directory
	// over a log store, evictions deleted, compaction included.
	al, _, err := store.OpenLog(filepath.Join(dir, "amp"), store.LogOptions{})
	if err != nil {
		return err
	}
	defer al.Close() // error paths; closing twice is harmless
	mix, _ := workloadByName("insert_mix")
	d := directory.New(1, mix.capacity, replacement.MustNew(replacement.LRU))
	var q [32]byte
	var userBytes, live uint64
	wchar0 := selfWchar()
	for _, id := range mix.gen(rand.New(rand.NewSource(o.seed)), 4*o.replay) {
		key := httpmsg.CanonicalKeyString("GET", cgiPath, string(mixQuery(q[:0], id)))
		now := time.Now()
		if _, hit := d.Lookup(key, now); hit {
			continue
		}
		if err := store.PutWithMeta(al, key, "application/octet-stream", bodies[2<<10], time.Microsecond, expires); err != nil {
			return err
		}
		userBytes += mixBody
		for _, victim := range d.InsertLocal(directory.Entry{Key: key, Size: mixBody, Inserted: now, Expires: expires}, now) {
			if err := al.Delete(victim); err != nil {
				return err
			}
		}
	}
	live = uint64(al.Len()) * mixBody
	// Close waits for a compaction in flight, so its writes are counted and
	// the segments it is replacing are gone before the directory is sized.
	if err := al.Close(); err != nil {
		return err
	}
	written := selfWchar() - wchar0
	var onDisk uint64
	segs, err := os.ReadDir(al.Dir())
	if err != nil {
		return err
	}
	for _, s := range segs {
		if info, err := s.Info(); err == nil && !info.IsDir() {
			onDisk += uint64(info.Size())
		}
	}
	if failed != nil {
		return fmt.Errorf("store layer: %w", failed)
	}
	r.set("store.log_write_amp", float64(written)/float64(userBytes), "ratio")
	r.set("store.log_space_amp", float64(onDisk)/float64(live), "ratio")
	return nil
}
