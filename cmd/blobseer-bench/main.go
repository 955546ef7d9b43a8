// Command blobseer-bench regenerates the paper's experiments.
//
// Usage:
//
//	blobseer-bench             # run everything at full scale
//	blobseer-bench -exp C1     # one experiment (A, B, C1, C2, C3, D, DD1, DD2, DD3)
//	blobseer-bench -quick      # smaller sweeps
//	blobseer-bench -csv        # CSV instead of aligned tables
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/experiments"
	"blobseer/internal/viz"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id: A,B,C1,C2,C3,D,DD1,DD2,DD3,AB1,AB2,AB3 or all")
		quick = flag.Bool("quick", false, "shrink sweeps for a fast run")
		csv   = flag.Bool("csv", false, "emit CSV")
	)
	flag.Parse()
	s := experiments.Scale{Quick: *quick}

	runners := map[string]func(experiments.Scale) *experiments.Table{
		"B": experiments.ExpB, "C1": experiments.ExpC1, "C2": experiments.ExpC2,
		"C3": experiments.ExpC3, "D": experiments.ExpD,
		"DD1": experiments.DD1, "DD3": experiments.DD3,
		"DD2": func(s experiments.Scale) *experiments.Table { return experiments.DD2(context.Background(), s) },
		"AB1": experiments.AB1, "AB2": experiments.AB2, "AB3": experiments.AB3,
	}
	order := []string{"A", "B", "C1", "C2", "C3", "D", "DD1", "DD2", "DD3", "AB1", "AB2", "AB3"}

	ids := []string{strings.ToUpper(*exp)}
	if strings.EqualFold(*exp, "all") {
		ids = order
	}
	for _, id := range ids {
		if id == "A" {
			expA()
			continue
		}
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		start := time.Now()
		table := run(s)
		if *csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Println(table.String())
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// expA renders the EXP-A visualization demo: a small live cluster with a
// mixed workload, displayed through the introspection dashboard.
func expA() {
	ctx := context.Background()
	cluster, err := core.NewCluster(core.Options{
		Providers: 8, Monitoring: true, AgentBatch: 1, Replicas: 2,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	users := []string{"alice", "bob", "carol"}
	for i, u := range users {
		cl := cluster.Client(u)
		info, err := cl.CreateContext(ctx, 4<<10)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		payload := strings.Repeat(fmt.Sprintf("%s-data-", u), 1000*(i+1))
		if _, err := cl.WriteContext(ctx, info.ID, 0, []byte(payload)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for j := 0; j < (i+1)*3; j++ {
			if _, err := cl.ReadContext(ctx, info.ID, 0, 0, 512); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	cluster.Tick(time.Now())
	fmt.Println("== EXP-A: Visualization tool for BlobSeer-specific data ==")
	fmt.Println(viz.Dashboard(cluster.Intro, cluster.VM, 24))
}
