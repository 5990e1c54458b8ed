package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"datastaging"
)

// The wire documents are the benchmark's own structs, not internal/serve's:
// the traffic must stay fixed when the service's types are refactored.

type sourceSpec struct {
	Machine int `json:"machine"`
}

type requestSpec struct {
	Machine  int   `json:"machine"`
	Deadline int64 `json:"deadline"` // ns since the scheduling epoch
	Priority int   `json:"priority"`
}

type submission struct {
	Name      string        `json:"name"`
	SizeBytes int64         `json:"sizeBytes"`
	Sources   []sourceSpec  `json:"sources"`
	Requests  []requestSpec `json:"requests"`
}

// arrival is one open-loop send: the body goes out At after the run starts,
// whatever the service is doing.
type arrival struct {
	At   time.Duration
	Sub  submission
	Body []byte
	// Cross marks a submission whose machines span regions (fed traffic).
	Cross bool
}

const (
	// timeScale is stagesvc's -time-scale: simulated seconds per wall second.
	// A 24 h scenario day passes in 36 wall seconds.
	timeScale = 2400
	// leadWall is how long after the service's start the first arrival is
	// due. Deadlines are absolute simulated instants, so fixing the lead
	// makes the arrival stream a pure function of the seed.
	leadWall = time.Second
	day      = 24 * time.Hour
)

// profile is one traffic mix.
type profile struct {
	rate             float64 // submissions per wall second
	sizeMin, sizeMax int64   // item size, log-uniform
	srcMax, dstMax   int     // 1..srcMax sources, 1..dstMax destinations
	slackMin         time.Duration
	slackMax         time.Duration
	// localShare is the probability a destination lies in the source's
	// region; used only when the network has regions.
	localShare float64
}

var (
	oversubProfile = profile{
		rate: 80, sizeMin: 4 << 20, sizeMax: 128 << 20,
		srcMax: 2, dstMax: 3,
		slackMin: 30 * time.Minute, slackMax: 3 * time.Hour,
	}
	fedProfile = profile{
		rate: 300, sizeMin: 64 << 10, sizeMax: 16 << 20,
		srcMax: 1, dstMax: 1,
		slackMin: time.Hour, slackMax: 8 * time.Hour,
		localShare: 0.8,
	}
)

// genArrivals draws rate*seconds submissions with exponential gaps. regions
// partitions the machines (nil: one region). Deadlines are
// simulated_now(At) + slack, clamped under the scenario day.
func genArrivals(rng *rand.Rand, p profile, regions [][]int, machines int, seconds float64) ([]arrival, error) {
	n := int(p.rate * seconds)
	regionOf := make([]int, machines)
	for r, ms := range regions {
		for _, m := range ms {
			regionOf[m] = r
		}
	}
	all := make([]int, machines)
	for m := range all {
		all[m] = m
	}
	out := make([]arrival, 0, n)
	var at float64 // wall seconds since run start
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() / p.rate
		sub := submission{
			Name:      fmt.Sprintf("w-%06d", i),
			SizeBytes: int64(math.Exp(math.Log(float64(p.sizeMin)) + rng.Float64()*math.Log(float64(p.sizeMax)/float64(p.sizeMin)))),
		}
		used := make(map[int]bool)
		pick := func(from []int) int {
			for {
				m := from[rng.Intn(len(from))]
				if !used[m] {
					used[m] = true
					return m
				}
			}
		}
		for k, ns := 0, 1+rng.Intn(p.srcMax); k < ns; k++ {
			sub.Sources = append(sub.Sources, sourceSpec{Machine: pick(all)})
		}
		home := regionOf[sub.Sources[0].Machine]
		now := leadWall + time.Duration(at*float64(time.Second))
		simNow := time.Duration(float64(now) * timeScale)
		cross := false
		for k, nd := 0, 1+rng.Intn(p.dstMax); k < nd; k++ {
			pool := all
			if len(regions) > 1 {
				if rng.Float64() < p.localShare {
					pool = regions[home]
				} else {
					pool = regions[(home+1+rng.Intn(len(regions)-1))%len(regions)]
					cross = true
				}
			}
			slack := p.slackMin + time.Duration(rng.Int63n(int64(p.slackMax-p.slackMin)+1))
			dl := simNow + slack
			if dl > day-time.Second {
				dl = day - time.Second
			}
			sub.Requests = append(sub.Requests, requestSpec{
				Machine: pick(pool), Deadline: int64(dl), Priority: rng.Intn(3),
			})
		}
		body, err := json.Marshal(sub)
		if err != nil {
			return nil, err
		}
		out = append(out, arrival{At: time.Duration(at * float64(time.Second)), Sub: sub, Body: body, Cross: cross})
	}
	return out, nil
}

// network is one generated deployment: the scenario file stagesvc loads
// (items dropped) plus, for a federated network, its regions.
type network struct {
	sc      *datastaging.Scenario
	regions [][]int // nil for a single-region network
	genMS   float64 // mean datastaging.Generate time per generated scenario
}

// paperNetwork is one paper §5.3 network with its item load dropped.
func paperNetwork(seed int64) (*network, error) {
	t0 := time.Now()
	sc, err := datastaging.Generate(datastaging.DefaultParams(), seed)
	if err != nil {
		return nil, err
	}
	genMS := msSince(t0)
	sc.Items = nil
	return &network{sc: sc, genMS: genMS}, nil
}

const (
	fedRegions       = 4
	fedRegionSize    = 10
	fedGateways      = 2
	fedWANBandwidth  = 1_500_000
	fedRegionSeedGap = 10
)

// fed4x10 builds the federated network: four generated 10-machine paper
// regions renumbered into one 40-machine network, adjacent regions joined
// through two gateway machines each by bidirectional all-day 1.5 Mbit/s WAN
// links (a ring, so opposite regions are two WAN hops apart).
func fed4x10(seed int64) (*network, error) {
	p := datastaging.DefaultParams()
	p.Machines.Min, p.Machines.Max = fedRegionSize, fedRegionSize
	var (
		machines []datastaging.Machine
		links    []datastaging.VirtualLink
		regions  [][]int
		physical int
		gc       time.Duration
		genMS    float64
	)
	for r := 0; r < fedRegions; r++ {
		t0 := time.Now()
		sc, err := datastaging.Generate(p, seed*fedRegionSeedGap+int64(r))
		if err != nil {
			return nil, err
		}
		genMS += msSince(t0) / fedRegions
		gc = sc.GarbageCollect
		off := datastaging.MachineID(r * fedRegionSize)
		var ms []int
		for _, m := range sc.Network.Machines {
			m.ID += off
			m.Name = fmt.Sprintf("r%dm%d", r, int(m.ID-off))
			machines = append(machines, m)
			ms = append(ms, int(m.ID))
		}
		regions = append(regions, ms)
		maxPhys := 0
		for _, l := range sc.Network.Links {
			if l.Physical > maxPhys {
				maxPhys = l.Physical
			}
			l.ID = datastaging.LinkID(len(links))
			l.From += off
			l.To += off
			l.Physical += physical
			links = append(links, l)
		}
		physical += maxPhys + 1
	}
	for r := 0; r < fedRegions; r++ {
		next := (r + 1) % fedRegions
		for g := 0; g < fedGateways; g++ {
			a := datastaging.MachineID(r*fedRegionSize + g)
			b := datastaging.MachineID(next*fedRegionSize + g)
			for _, ends := range [][2]datastaging.MachineID{{a, b}, {b, a}} {
				links = append(links, datastaging.VirtualLink{
					ID: datastaging.LinkID(len(links)), From: ends[0], To: ends[1],
					Window:       datastaging.Interval{Start: 0, End: datastaging.Instant(day)},
					BandwidthBPS: fedWANBandwidth, Physical: physical,
				})
				physical++
			}
		}
	}
	net, err := datastaging.NewNetwork(machines, links)
	if err != nil {
		return nil, err
	}
	return &network{
		sc: &datastaging.Scenario{
			Name: fmt.Sprintf("fed4x10-seed%d", seed), Network: net,
			GarbageCollect: gc, Horizon: datastaging.Instant(day),
		},
		regions: regions,
		genMS:   genMS,
	}, nil
}

// encode renders the scenario file stagesvc reads with -in.
func (n *network) encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := n.sc.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// shardMap renders the -shard-map document: the regions as shards.
func (n *network) shardMap() ([]byte, error) {
	return json.Marshal(struct {
		Shards [][]int `json:"shards"`
	}{n.regions})
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
