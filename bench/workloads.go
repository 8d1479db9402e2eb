//go:build linux

package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/bench/payload"
)

// Cache classes, as the X-Swala-Cache response header names them; a response
// without the header is a static file or an executed CGI.
const (
	classNone = iota // static file or executed CGI
	classLocal
	classRemote
	classOther // any class the four workloads must never see
	numClasses
)

var classNames = [numClasses]string{"executed", "local", "remote", "other"}

const (
	cgiPath   = "/cgi-bin/b"
	hitKeys   = 4096 // key universe of local_hit and remote_hit
	mixBody   = 2048 // body size of every insert_mix key
	mixRecent = 2048 // insert_mix re-reads pick among this many recent keys
	// mixGuard keeps re-reads off the few newest keys, whose insert may
	// still be in flight on the other connection or in a broadcast batch.
	mixGuard = 16
	mixFresh = 0.30
	zipfS    = 1.1
)

// workload describes one traffic mix and the cluster it runs against.
type workload struct {
	name        string
	nodes       int
	cooperative bool
	logStore    bool
	capacity    int
	files       []fileSpec // static files every node serves
	openRate    float64    // open-loop arrivals per second
	target      [2]int     // node index connection 0 and 1 talk to
	wantClass   int        // class every measured response must carry; -1 = any
	// warm lists what set-up requests, in order. Once every node's directory
	// holds dirEntries entries, verify lists the requests that must then
	// answer with the right body and the given class.
	warm       func() []probe
	dirEntries int
	verify     func() []probe
	catalog    catalog
	// gen draws the first n requests of the seeded stream.
	gen func(rng *rand.Rand, n int) []uint32
}

type fileSpec struct {
	path  string
	size  int
	share float64
}

// probe is one set-up request: id sent to node, expecting class (-1 = any).
type probe struct {
	node  int
	id    uint32
	class int
}

// webstone is the paper's WebStone file mix (Table 2): mean ≈ 15.2 KiB.
var webstone = []fileSpec{
	{"/files/f500b.bin", 500, 0.350},
	{"/files/f5k.bin", 5 << 10, 0.500},
	{"/files/f50k.bin", 50 << 10, 0.140},
	{"/files/f500k.bin", 500 << 10, 0.009},
	{"/files/f1m.bin", 1 << 20, 0.001},
}

// catalog turns a stream id into the request bytes the load generator sends
// and the body it must get back.
type catalog interface {
	// appendRequest appends the HTTP/1.1 request for id to dst.
	appendRequest(dst []byte, id uint32) []byte
	// expect returns the size and payload.Sum of id's body; scratch is
	// reusable space.
	expect(id uint32, scratch *[]byte) (size int, sum uint64)
	// uri is the request target of id, for the traced replay.
	uri(id uint32) string
	// sizeOf is the size of id's body, and sizes every size there is.
	sizeOf(id uint32) int
	sizes() []int
}

func httpGet(dst []byte, uri string) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, uri...)
	return append(dst, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
}

// table is a fixed set of requests, all rendered and summed up front.
type table struct {
	uris []string
	reqs [][]byte
	size []int
	sums []uint64
}

func (t *table) add(uri, bodyName string, size int) {
	t.uris = append(t.uris, uri)
	t.reqs = append(t.reqs, httpGet(nil, uri))
	t.size = append(t.size, size)
	t.sums = append(t.sums, payload.Sum(payload.Body(bodyName, size)))
}

func (t *table) appendRequest(dst []byte, id uint32) []byte { return append(dst, t.reqs[id]...) }
func (t *table) expect(id uint32, _ *[]byte) (int, uint64)  { return t.size[id], t.sums[id] }
func (t *table) uri(id uint32) string                       { return t.uris[id] }
func (t *table) sizeOf(id uint32) int                       { return t.size[id] }

func (t *table) sizes() []int {
	var out []int
	for _, n := range t.size {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

func staticTable() *table {
	t := &table{}
	for _, f := range webstone {
		t.add(f.path, f.path, f.size)
	}
	return t
}

// hitSize is the body size of key k in local_hit and remote_hit.
func hitSize(k int) int {
	if k%8 == 0 {
		return 32 << 10
	}
	return 2 << 10
}

func hitTable() *table {
	t := &table{}
	for k := 0; k < hitKeys; k++ {
		q := "k=" + strconv.Itoa(k) + "&s=" + strconv.Itoa(hitSize(k))
		t.add(cgiPath+"?"+q, q, hitSize(k))
	}
	return t
}

// mixCatalog is insert_mix's open-ended key space: id n is key "m<n>", 2 KiB.
type mixCatalog struct{}

func mixQuery(dst []byte, id uint32) []byte {
	dst = append(dst, "k=m"...)
	dst = strconv.AppendUint(dst, uint64(id), 10)
	dst = append(dst, "&s="...)
	return strconv.AppendUint(dst, mixBody, 10)
}

func (mixCatalog) appendRequest(dst []byte, id uint32) []byte {
	dst = append(dst, "GET "+cgiPath+"?"...)
	dst = mixQuery(dst, id)
	return append(dst, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
}

func (mixCatalog) expect(id uint32, scratch *[]byte) (int, uint64) {
	var q [32]byte
	*scratch = payload.AppendBody((*scratch)[:0], string(mixQuery(q[:0], id)), mixBody)
	return mixBody, payload.Sum(*scratch)
}

func (mixCatalog) sizeOf(uint32) int { return mixBody }
func (mixCatalog) sizes() []int      { return []int{mixBody} }

func (mixCatalog) uri(id uint32) string {
	return cgiPath + "?" + string(mixQuery(nil, id))
}

// refPath and refName are the reference server's request path and the name
// of the body it serves prefixes of (bench/ref).
const (
	refPath = "/ref?s="
	refName = "ref"
)

// refCatalog turns a workload's stream into requests to the reference
// server: id asks for a body of the size the workload's own request for id
// returns, and nothing else about the request carries over.
type refCatalog struct {
	of   catalog
	size []int
	reqs [][]byte
	sums []uint64
}

func newRefCatalog(of catalog) *refCatalog {
	r := &refCatalog{of: of, size: of.sizes()}
	body := payload.Body(refName, slices.Max(r.size))
	for _, n := range r.size {
		r.reqs = append(r.reqs, httpGet(nil, refPath+strconv.Itoa(n)))
		r.sums = append(r.sums, payload.Sum(body[:n]))
	}
	return r
}

func (r *refCatalog) index(id uint32) int { return slices.Index(r.size, r.of.sizeOf(id)) }

func (r *refCatalog) appendRequest(dst []byte, id uint32) []byte {
	return append(dst, r.reqs[r.index(id)]...)
}

func (r *refCatalog) expect(id uint32, _ *[]byte) (int, uint64) {
	i := r.index(id)
	return r.size[i], r.sums[i]
}

func (r *refCatalog) uri(id uint32) string { return refPath + strconv.Itoa(r.of.sizeOf(id)) }
func (r *refCatalog) sizeOf(id uint32) int { return r.of.sizeOf(id) }
func (r *refCatalog) sizes() []int         { return r.size }

// refOf is w as the reference server sees it: the same stream generator and
// open-loop rate, every request turned into one for a body of the same size,
// both connections on the one reference process.
func refOf(w *workload) *workload {
	r := *w
	r.name, r.catalog, r.wantClass, r.target = w.name+"/ref", newRefCatalog(w.catalog), classNone, [2]int{}
	return &r
}

// genStatic samples the WebStone mix.
func genStatic(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		u, acc := rng.Float64(), 0.0
		for j, f := range webstone {
			acc += f.share
			if u < acc || j == len(webstone)-1 {
				out[i] = uint32(j)
				break
			}
		}
	}
	return out
}

// genHits samples keys Zipf(1.1) by rank. The rank→key map is fixed, not
// seeded: rank r is key r+1, so the hottest key is a 2 KiB one on every seed
// and the 32 KiB share of the traffic (≈9 %) does not move with the seed.
func genHits(rng *rand.Rand, n int) []uint32 {
	z := rand.NewZipf(rng, zipfS, 1, hitKeys-1)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32((z.Uint64() + 1) % hitKeys)
	}
	return out
}

// mixWarmKeys fills both caches to capacity before insert_mix is measured, so
// that every measured insert evicts and the log compacts in steady state.
func mixWarmKeys(capacity int) int { return 2 * capacity }

// genMix builds insert_mix: 30 % fresh keys, 70 % re-reads of a Zipf-chosen
// key among the 2048 most recent. Ids are assigned in stream order, so the
// id of every request is a function of the seed alone.
func genMix(warmed int) func(rng *rand.Rand, n int) []uint32 {
	return func(rng *rand.Rand, n int) []uint32 {
		z := rand.NewZipf(rng, zipfS, 1, mixRecent-1)
		next := uint32(warmed)
		out := make([]uint32, n)
		for i := range out {
			if rng.Float64() < mixFresh {
				out[i] = next
				next++
			} else {
				out[i] = next - 1 - mixGuard - uint32(z.Uint64())
			}
		}
		return out
	}
}

// poisson returns the offsets of Poisson arrivals at rate/s over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

func workloads() []*workload {
	static, hits := staticTable(), hitTable()
	// all lists ids [from, to) at node, expecting class.
	all := func(from, to, node, class int) func() []probe {
		return func() []probe {
			out := make([]probe, 0, to-from)
			for id := from; id < to; id++ {
				out = append(out, probe{node, uint32(id), class})
			}
			return out
		}
	}
	const mixCap = 4096
	mixWarm := mixWarmKeys(mixCap)
	return []*workload{
		{
			name:  "static_webstone",
			nodes: 1, capacity: 8192, files: webstone, openRate: 2000, wantClass: classNone,
			warm: all(0, len(webstone), 0, classNone), verify: all(0, len(webstone), 0, classNone),
			catalog: static, gen: genStatic,
		},
		{
			name:  "local_hit",
			nodes: 1, logStore: true, capacity: 8192, openRate: 2000, wantClass: classLocal,
			warm: all(0, hitKeys, 0, -1), dirEntries: hitKeys, verify: all(0, hitKeys, 0, classLocal),
			catalog: hits, gen: genHits,
		},
		{
			name:  "remote_hit",
			nodes: 2, cooperative: true, logStore: true, capacity: 8192, openRate: 1000,
			target: [2]int{1, 1}, wantClass: classRemote,
			warm: all(0, hitKeys, 0, -1), dirEntries: hitKeys, verify: all(0, hitKeys, 1, classRemote),
			catalog: hits, gen: genHits,
		},
		{
			name:  "insert_mix",
			nodes: 2, cooperative: true, logStore: true, capacity: mixCap, openRate: 1000,
			target: [2]int{0, 1}, wantClass: -1,
			// Key i is inserted through node i mod 2; afterwards the keys a
			// re-read can reach must be remote hits on the other node.
			warm: func() []probe {
				out := make([]probe, mixWarm)
				for i := range out {
					out[i] = probe{i % 2, uint32(i), -1}
				}
				return out
			},
			dirEntries: mixWarm,
			verify: func() []probe {
				var out []probe
				for i := mixWarm - mixRecent - mixGuard; i < mixWarm; i++ {
					out = append(out, probe{(i + 1) % 2, uint32(i), classRemote})
				}
				return out
			},
			catalog: mixCatalog{}, gen: genMix(mixWarm),
		},
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// percentile returns the p-quantile (0 < p ≤ 1) of sorted, nearest-rank.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
