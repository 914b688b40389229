package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// Query texts. Parameterized texts are constant, so one cached plan
// serves every binding; the literal class splices the value in and
// walks through more distinct texts than the plan cache holds.
const (
	qSeek = `match (n {name:$ioc}) return n`
	qHop1 = `match (i {name:$ioc})<-[:CONNECT]-(m:Malware) return m.name`
	qHop2 = `match (r:MalwareReport)-[:DESCRIBES]->(m:Malware {name:$mw})-[:CONNECT]->(i:IP) return r.name, i.name limit 50`

	qAgg    = `match (r:MalwareReport)-[:REPORTED_BY]->(v:CTIVendor) return v.name, count(*) as n order by n desc, v.name limit 10`
	qVarlen = `match (m:Malware {name:$mw})-[:CONNECT*1..2]-(host) optional match (host)<-[:MENTIONS]-(r) with host, collect(r.name) as reports where host.name starts with "10." return host.name, reports order by host.name limit 10`
	qJoin   = `match (m:Malware), (t:Tool) where m.family = t.name return t.name, count(*) as n order by n desc, t.name limit 10`
	qTopk   = `match (r:MalwareReport) return r.name order by r.published desc, r.name limit 10`
	qStream = `match (d:Domain) return d.name, d.first_seen`

	// The writer's batch: sightings of IPs, seven in ten already known.
	qWriteBatch = `unwind $batch as row merge (i:IP {name: row.ip}) set i.last_seen = row.seen`
	qVisible    = `match (i:IP {name:$ip}) return i.last_seen`

	// expandNeighbors keeps an expand's subgraph at nine nodes: the
	// Barnes-Hut layout of the API's default 26 costs 2.5 ms, which at one
	// request in twenty would make hunt-point a layout benchmark.
	expandNeighbors = 8

	hop2Limit   = 50 // the limit in qHop2
	varlenHubs  = 16 // varlen bindings cycle through the top malware ranks
	searchTopK  = 10
	literalPool = 4096 // distinct literal texts, 8x the plan cache
)

func literalText(name string) string {
	return `match (n {name:` + strconv.Quote(name) + `}) return n`
}

// cypherText returns the statement and bindings a Cypher-class request
// carries, so the layer replays can issue exactly what the client sent.
func cypherText(m *kgModel, r *request) (string, map[string]any) {
	switch r.class {
	case "seek":
		return qSeek, map[string]any{"ioc": m.iocs[r.key]}
	case "hop1":
		return qHop1, map[string]any{"ioc": m.iocs[r.key]}
	case "hop2":
		return qHop2, map[string]any{"mw": m.malware[r.key]}
	case "literal":
		return literalText(m.iocs[r.key]), nil
	case "agg":
		return qAgg, nil
	case "varlen":
		return qVarlen, map[string]any{"mw": m.malware[r.key]}
	case "join":
		return qJoin, nil
	case "topk":
		return qTopk, nil
	case "stream":
		return qStream, nil
	}
	panic("cypherText: not a Cypher class: " + r.class)
}

// reqGen produces one client's request sequence from the seed: the
// i-th request of client c is the same in every run with that seed.
type reqGen struct {
	m       *kgModel
	rng     *rand.Rand
	scan    bool
	n       int
	iocZ    zipf
	mwZ     zipf
	literal []int32 // shuffled IOC ranks the literal class walks through
	litPos  int
}

func newReqGen(m *kgModel, seed int64, client int, scan bool) *reqGen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 17))
	g := &reqGen{m: m, rng: rng, scan: scan, iocZ: newZipf(rng, len(m.iocs)), mwZ: newZipf(rng, len(m.malware))}
	pool := min(literalPool, len(m.iocs))
	g.literal = make([]int32, pool)
	for i, p := range rng.Perm(len(m.iocs))[:pool] {
		g.literal[i] = int32(p)
	}
	return g
}

func cypherBody(q string, params map[string]any, stream bool) []byte {
	body := map[string]any{"query": q}
	if params != nil {
		body["params"] = params
	}
	if stream {
		body["stream"] = true
	}
	b, _ := json.Marshal(body)
	return b
}

func (g *reqGen) cypher(class string, key int) *request {
	r := &request{class: class, method: "POST", path: "/api/cypher", key: key, stream: class == "stream"}
	q, params := cypherText(g.m, r)
	r.body = cypherBody(q, params, r.stream)
	return r
}

// next draws the next request: the point mix by count (seek 40, hop1
// 25, hop2 10, literal 10, search 10, expand 5), or the scan classes
// round-robin.
func (g *reqGen) next() *request {
	g.n++
	if g.scan {
		class := scanClasses[(g.n-1)%len(scanClasses)]
		key := 0
		if class == "varlen" {
			key = ((g.n - 1) / len(scanClasses)) % min(varlenHubs, len(g.m.malware))
		}
		return g.cypher(class, key)
	}
	switch u := g.rng.Intn(100); {
	case u < 40:
		return g.cypher("seek", g.iocZ.next())
	case u < 65:
		return g.cypher("hop1", g.iocZ.next())
	case u < 75:
		return g.cypher("hop2", g.mwZ.next())
	case u < 85:
		key := int(g.literal[g.litPos%len(g.literal)])
		g.litPos++
		return g.cypher("literal", key)
	case u < 95:
		key := g.mwZ.next()
		return &request{class: "search", method: "GET", key: key,
			path: "/api/search?k=" + strconv.Itoa(searchTopK) + "&q=" + url.QueryEscape(g.m.malware[key])}
	default:
		key := g.mwZ.next()
		return &request{class: "expand", method: "GET", key: key,
			path: fmt.Sprintf("/api/expand?id=%d&depth=1&neighbors=%d", g.m.malwareID[key], expandNeighbors)}
	}
}

// requestStreamHash fingerprints the first n requests of both clients.
func requestStreamHash(m *kgModel, seed int64, scan bool, n int) string {
	var h streamHash
	for c := 0; c < clients; c++ {
		g := newReqGen(m, seed, c, scan)
		for i := 0; i < n; i++ {
			r := g.next()
			h.add(r.class, r.path, string(r.body))
		}
	}
	return h.String()
}
