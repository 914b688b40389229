package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"securitykg/internal/graph"
	"securitykg/internal/search"
)

// kg-100k: the deterministic CTI-shaped graph the hunt workloads read.
// Every random choice comes from the run's seed; what keeps two seeds
// comparable is size — label counts and out-degree sequences are fixed
// by rank, and only the wiring, the names' order of insertion (hence
// node IDs) and the request stream differ. Targets are drawn from a
// Zipf–Mandelbrot law (exponent 1.1, offset zipfOffset) so hubs exist
// without one node owning a fifth of all edges.

const (
	zipfS      = 1.1
	zipfOffset = 50
)

// kgSize holds the label counts; kgFull is kg-100k and scaled() shrinks
// it for the smoke test.
type kgSize struct {
	vendors, reports, malware, actors, techniques, tools int
	ips, domains, hashes                                 int
	connectEdges                                         int // total malware->IOC CONNECT edges, split by rank
	mentionsPerReport                                    int
}

var kgFull = kgSize{
	vendors: 40, reports: 30000, malware: 4000, actors: 500, techniques: 300, tools: 200,
	ips: 35000, domains: 20000, hashes: 10000,
	connectEdges: 100000, mentionsPerReport: 6,
}

func (z kgSize) scaled(f float64) kgSize {
	sc := func(n, min int) int {
		if v := int(float64(n) * f); v > min {
			return v
		}
		return min
	}
	return kgSize{
		vendors: sc(z.vendors, 8), reports: sc(z.reports, 200), malware: sc(z.malware, 60),
		actors: sc(z.actors, 20), techniques: sc(z.techniques, 20), tools: sc(z.tools, 10),
		ips: sc(z.ips, 300), domains: sc(z.domains, 200), hashes: sc(z.hashes, 100),
		connectEdges: sc(z.connectEdges, 1500), mentionsPerReport: z.mentionsPerReport,
	}
}

// kgModel is the generator's own record of what it built — enough to
// predict the row set of every point-class request without asking the
// engine.
type kgModel struct {
	vendors, reports, malware, actors, techniques, tools []string
	iocs                                                 []string // ips, domains, hashes interleaved by rank
	iocLabel                                             []string // label of iocs[i]

	malwareID []graph.NodeID // node IDs by malware rank (expand bindings)

	connectOut  [][]int32 // malware rank -> IOC ranks (deduplicated, IPs and domains only)
	connectIn   map[int32][]int32
	describedBy [][]int32 // malware rank -> report ranks

	nodes int
}

// zipf draws ranks in [0,n) from the Zipf–Mandelbrot law.
type zipf struct{ z *rand.Zipf }

func newZipf(rng *rand.Rand, n int) zipf {
	return zipf{rand.NewZipf(rng, zipfS, zipfOffset, uint64(n-1))}
}
func (z zipf) next() int { return int(z.z.Uint64()) }

// rankDegrees splits total edges over n sources by the same law,
// deterministically: degree(r) ∝ (offset+r)^-s, at least 2.
func rankDegrees(n, total int) []int {
	w := make([]float64, n)
	sum := 0.0
	for r := range w {
		w[r] = math.Pow(float64(zipfOffset+r), -zipfS)
		sum += w[r]
	}
	out := make([]int, n)
	for r := range out {
		out[r] = int(w[r] / sum * float64(total))
		if out[r] < 2 {
			out[r] = 2
		}
	}
	return out
}

func octets(i int) string {
	return fmt.Sprintf("10.%d.%d.%d", (i>>16)&255, (i>>8)&255, i&255)
}

// buildKG generates the graph into st (inside one bulk bracket, so the
// adjacency seals once) and the search index, and returns the model.
// st may be a durable store: the mutations then reach its WAL.
func buildKG(seed int64, size kgSize, st *graph.Store, ix *search.Index) (*kgModel, error) {
	rng := rand.New(rand.NewSource(seed))
	m := &kgModel{connectIn: make(map[int32][]int32)}
	tag := fmt.Sprintf("%04x", uint16(seed*40503)) // names differ per seed, so bodies and hashes do too

	name := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s-%s-%d", prefix, tag, i)
		}
		return out
	}
	m.vendors = name("vendor", size.vendors)
	m.reports = name("report", size.reports)
	m.malware = name("mw", size.malware)
	m.actors = name("actor", size.actors)
	m.techniques = name("technique", size.techniques)
	m.tools = name("tool", size.tools)

	// IOCs interleaved so every type has members among the hubs.
	nIOC := size.ips + size.domains + size.hashes
	m.iocs = make([]string, 0, nIOC)
	m.iocLabel = make([]string, 0, nIOC)
	ip, dom, hash := 0, 0, 0
	for len(m.iocs) < nIOC {
		if ip < size.ips {
			m.iocs = append(m.iocs, octets(ip+int(seed&0xff)<<16))
			m.iocLabel = append(m.iocLabel, "IP")
			ip++
		}
		if dom*size.ips < ip*size.domains && dom < size.domains {
			m.iocs = append(m.iocs, fmt.Sprintf("c2-%s-%d.example", tag, dom))
			m.iocLabel = append(m.iocLabel, "Domain")
			dom++
		}
		if hash*size.ips < ip*size.hashes && hash < size.hashes {
			m.iocs = append(m.iocs, fmt.Sprintf("%s%028x", tag, hash))
			m.iocLabel = append(m.iocLabel, "FileHash")
			hash++
		}
	}

	st.Reserve(nIOC+size.reports+size.malware+1200, 4*(nIOC+size.reports))
	st.BeginBulk()
	defer st.EndBulk()

	type ref struct {
		label string
		rank  int
	}
	var order []ref
	add := func(label string, n int) {
		for i := 0; i < n; i++ {
			order = append(order, ref{label, i})
		}
	}
	add("CTIVendor", size.vendors)
	add("MalwareReport", size.reports)
	add("Malware", size.malware)
	add("ThreatActor", size.actors)
	add("Technique", size.techniques)
	add("Tool", size.tools)
	add("IOC", nIOC)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	ids := map[string][]graph.NodeID{
		"CTIVendor": make([]graph.NodeID, size.vendors), "MalwareReport": make([]graph.NodeID, size.reports),
		"Malware": make([]graph.NodeID, size.malware), "ThreatActor": make([]graph.NodeID, size.actors),
		"Technique": make([]graph.NodeID, size.techniques), "Tool": make([]graph.NodeID, size.tools),
		"IOC": make([]graph.NodeID, nIOC),
	}
	toolZ := newZipf(rng, size.tools)
	for _, r := range order {
		var id graph.NodeID
		switch r.label {
		case "CTIVendor":
			id, _ = st.MergeNode(r.label, m.vendors[r.rank], nil)
		case "MalwareReport":
			id, _ = st.MergeNode(r.label, m.reports[r.rank], map[string]string{
				"report_id": fmt.Sprintf("rid-%s-%d", tag, r.rank),
				"published": fmt.Sprintf("2021-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)),
			})
		case "Malware":
			id, _ = st.MergeNode(r.label, m.malware[r.rank], map[string]string{"family": m.tools[toolZ.next()]})
		case "ThreatActor":
			id, _ = st.MergeNode(r.label, m.actors[r.rank], nil)
		case "Technique":
			id, _ = st.MergeNode(r.label, m.techniques[r.rank], nil)
		case "Tool":
			id, _ = st.MergeNode(r.label, m.tools[r.rank], nil)
		case "IOC":
			id, _ = st.MergeNode(m.iocLabel[r.rank], m.iocs[r.rank], map[string]string{"first_seen": "2021"})
		}
		ids[r.label][r.rank] = id
	}
	m.malwareID = ids["Malware"]

	edge := func(from graph.NodeID, typ string, to graph.NodeID) error {
		_, _, err := st.AddEdge(from, typ, to, nil)
		return err
	}
	vendorZ, malwareZ, iocZ := newZipf(rng, size.vendors), newZipf(rng, size.malware), newZipf(rng, nIOC)
	actorZ := newZipf(rng, size.actors)
	m.describedBy = make([][]int32, size.malware)
	for r := 0; r < size.reports; r++ {
		if err := edge(ids["MalwareReport"][r], "REPORTED_BY", ids["CTIVendor"][vendorZ.next()]); err != nil {
			return nil, err
		}
		described := []int{malwareZ.next()}
		if rng.Intn(2) == 0 {
			if second := malwareZ.next(); second != described[0] {
				described = append(described, second)
			}
		}
		var terms string
		for _, mw := range described {
			if err := edge(ids["MalwareReport"][r], "DESCRIBES", ids["Malware"][mw]); err != nil {
				return nil, err
			}
			m.describedBy[mw] = append(m.describedBy[mw], int32(r))
			terms += " " + m.malware[mw]
		}
		for k := 0; k < size.mentionsPerReport; k++ {
			if err := edge(ids["MalwareReport"][r], "MENTIONS", ids["IOC"][iocZ.next()]); err != nil {
				return nil, err
			}
		}
		if ix != nil {
			ix.Add(search.Document{ID: fmt.Sprintf("rid-%s-%d", tag, r), Fields: map[string]string{
				"title": m.reports[r] + terms,
				"body":  "analysis of" + terms + " infrastructure and delivery",
			}})
		}
	}
	m.connectOut = make([][]int32, size.malware)
	for mw, deg := range rankDegrees(size.malware, size.connectEdges) {
		seen := make(map[int32]bool, deg)
		for k := 0; k < deg; k++ {
			t := int32(iocZ.next())
			if m.iocLabel[t] == "FileHash" || seen[t] {
				continue
			}
			seen[t] = true
			if err := edge(ids["Malware"][mw], "CONNECT", ids["IOC"][t]); err != nil {
				return nil, err
			}
			m.connectOut[mw] = append(m.connectOut[mw], t)
			m.connectIn[t] = append(m.connectIn[t], int32(mw))
		}
		for k := 0; k < 5; k++ {
			if err := edge(ids["Malware"][mw], "USE", ids["Technique"][rng.Intn(size.techniques)]); err != nil {
				return nil, err
			}
			h := iocZ.next()
			if m.iocLabel[h] == "FileHash" {
				if err := edge(ids["Malware"][mw], "DROP", ids["IOC"][h]); err != nil {
					return nil, err
				}
			}
		}
		if err := edge(ids["Malware"][mw], "ATTRIBUTED_TO", ids["ThreatActor"][actorZ.next()]); err != nil {
			return nil, err
		}
	}
	for a := 0; a < size.actors; a++ {
		for k := 0; k < 4; k++ {
			if err := edge(ids["ThreatActor"][a], "USE", ids["Tool"][rng.Intn(size.tools)]); err != nil {
				return nil, err
			}
		}
	}
	m.nodes = st.Stats().Nodes
	return m, nil
}

// connectedIPs lists the IP-labelled CONNECT targets of a malware rank.
func (m *kgModel) connectedIPs(mw int) []string {
	var out []string
	for _, t := range m.connectOut[mw] {
		if m.iocLabel[t] == "IP" {
			out = append(out, m.iocs[t])
		}
	}
	return out
}

// streamHash fingerprints a sequence of strings; the request stream's
// hash is printed in every result so two runs can be seen to have
// issued the same requests.
type streamHash struct{ h uint64 }

func (s *streamHash) add(parts ...string) {
	f := fnv.New64a()
	for _, p := range parts {
		f.Write([]byte(p))
		f.Write([]byte{0})
	}
	s.h = s.h*1099511628211 ^ f.Sum64()
}
func (s *streamHash) String() string { return fmt.Sprintf("%016x", s.h) }
