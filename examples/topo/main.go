// Topology quickstart: run the topology-general election family — the
// diameter-two election and its well-connected variant — across graph
// families, sharded over three in-process simd workers and merged
// deterministically.
//
// This is the library view of `fleetctl -sweep topo-matrix -spawn 3`:
// each point names a graph family (JobSpec.Topology), the workers
// resolve it with topo.ResolveTopology and execute on its compiled port
// table, and the merged report is bit-identical to an unsharded run.
package main

import (
	"context"
	"log"
	"net/http/httptest"
	"os"

	"sublinear/internal/experiment"
	"sublinear/internal/fleet"
	"sublinear/internal/simsvc"
)

func main() {
	// Three "workers": real simsvc services behind test listeners. In
	// production these are simd daemons on other machines — fleetctl
	// -spawn 3 starts them for you locally.
	var urls []string
	for i := 0; i < 3; i++ {
		svc := simsvc.New(simsvc.Config{Workers: 2})
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		defer svc.Close(context.Background())
		urls = append(urls, srv.URL)
	}

	// A slice of the topo-matrix sweep: the diameter-two election on its
	// native cluster graph (fault-free and under 6 random crashes) and on
	// the clique, plus the well-connected variant on an expander. f=0
	// pins the fault-free rows — a nil F would derive (1-alpha)*n faults.
	zero, six := 0, 6
	plan, err := fleet.NewPlan(fleet.Workload{
		Kind: fleet.KindSweep,
		Sweep: experiment.Sweep{
			Name:  "topo-quickstart",
			Title: "topology-general elections at n=64",
			Points: []experiment.SweepPoint{
				{Label: "d2 cluster-d2", Protocol: "d2election", N: 64, Alpha: 0.9, F: &zero, Topology: "cluster-d2", Reps: 8},
				{Label: "d2 cluster-d2 f=6", Protocol: "d2election", N: 64, Alpha: 0.9, F: &six, Policy: "half", Topology: "cluster-d2", Reps: 8},
				{Label: "d2 clique", Protocol: "d2election", N: 64, Alpha: 0.9, F: &zero, Topology: "clique", Reps: 8},
				{Label: "wc wellconnected", Protocol: "wcelection", N: 64, Alpha: 0.9, F: &zero, Topology: "wellconnected", Reps: 8},
			},
		},
		ShardReps: 2,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}

	out, err := fleet.Run(context.Background(), fleet.Config{
		Workers:  urls,
		Progress: log.Printf,
	}, plan)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := fleet.MergeReport(plan, out.Results)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
