// MapReduce-style word count over BlobSeer — the data-intensive
// application class the paper's introduction motivates. The input corpus
// lives in one BLOB; map tasks read disjoint chunk-aligned ranges in
// parallel (exploiting BlobSeer's heavily-concurrent read path), emit
// partial counts, and a reduce phase merges them. Each map task appends
// its partial result to a temporary output BLOB, exercising concurrent
// appends (the version manager hands out disjoint offsets).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"

	"blobseer/internal/core"
)

const corpus = `the cloud stores data the data grows the system adapts
self adaptation needs introspection introspection needs monitoring
monitoring feeds the history the history feeds the policies
the policies protect the cloud the cloud serves the data`

func main() {
	ctx := context.Background()
	cluster, err := core.NewCluster(core.Options{Providers: 4, Replicas: 2})
	if err != nil {
		log.Fatal(err)
	}
	driver := cluster.Client("driver")

	// Load the input corpus: 64-byte chunks so the job has real ranges.
	const chunkSize = 64
	input, err := driver.CreateContext(ctx, chunkSize)
	if err != nil {
		log.Fatal(err)
	}
	data := []byte(strings.Repeat(corpus+"\n", 32))
	if _, err := driver.WriteContext(ctx, input.ID, 0, data); err != nil {
		log.Fatal(err)
	}
	size, _ := driver.Size(input.ID, 0)
	fmt.Printf("input blob %d: %d bytes in %d chunks\n",
		input.ID, size, (size+chunkSize-1)/chunkSize)

	// Split into map tasks of 4 chunks each, extended to word boundaries.
	const taskSpan = 4 * chunkSize
	type task struct{ lo, hi int64 }
	var tasks []task
	for lo := int64(0); lo < size; lo += taskSpan {
		hi := lo + taskSpan
		if hi > size {
			hi = size
		}
		tasks = append(tasks, task{lo, hi})
	}

	// Map phase: each worker reads its range (plus slack to finish the
	// last word), counts words, and appends its partial result.
	partials := make([]map[string]int, len(tasks))
	out, err := driver.CreateTemporaryContext(ctx, 1<<10)
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, tk := range tasks {
		wg.Add(1)
		go func(i int, tk task) {
			defer wg.Done()
			mapper := cluster.Client(fmt.Sprintf("mapper-%02d", i))
			// Read one byte before the range (to detect a word split at
			// the boundary) and past its end (to finish the last word).
			rlo := tk.lo
			if rlo > 0 {
				rlo--
			}
			hi := tk.hi + 32
			if hi > size {
				hi = size
			}
			raw, err := mapper.ReadContext(ctx, input.ID, 0, rlo, hi-rlo)
			if err != nil {
				log.Printf("map %d: %v", i, err)
				return
			}
			// The first word belongs to the previous task only when it
			// straddles the boundary (the byte before lo is mid-word).
			skipFirst := tk.lo > 0 && !isSpace(raw[0])
			counts := countWords(raw, skipFirst, int(tk.hi-rlo))
			partials[i] = counts
			// Persist the partial (concurrent appends get disjoint offsets).
			var sb strings.Builder
			fmt.Fprintf(&sb, "task%02d:", i)
			for w, c := range counts {
				fmt.Fprintf(&sb, " %s=%d", w, c)
			}
			sb.WriteByte('\n')
			if _, err := mapper.AppendContext(ctx, out.ID, []byte(sb.String())); err != nil {
				log.Printf("map %d append: %v", i, err)
			}
		}(i, tk)
	}
	wg.Wait()

	// Reduce phase: merge the partials.
	total := map[string]int{}
	for _, p := range partials {
		for w, c := range p {
			total[w] += c
		}
	}
	type wc struct {
		w string
		c int
	}
	var ranked []wc
	for w, c := range total {
		ranked = append(ranked, wc{w, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].w < ranked[j].w
	})
	fmt.Printf("%d map tasks over %d mappers; top words:\n", len(tasks), len(tasks))
	for _, e := range ranked[:5] {
		fmt.Printf("  %-14s %d\n", e.w, e.c)
	}
	outSize, _ := driver.Size(out.ID, 0)
	fmt.Printf("partial-results blob: %d bytes across %d appends\n", outSize, len(tasks))
}

// countWords counts whole words in raw. When skipFirst is set the first
// (split) word belongs to the previous task; words beginning at or past
// span belong to the next task.
func countWords(raw []byte, skipFirst bool, span int) map[string]int {
	counts := map[string]int{}
	i := 0
	n := len(raw)
	if skipFirst {
		for i < n && !isSpace(raw[i]) {
			i++
		}
	}
	for i < n {
		for i < n && isSpace(raw[i]) {
			i++
		}
		start := i
		for i < n && !isSpace(raw[i]) {
			i++
		}
		if start >= span || start == i {
			break
		}
		counts[string(raw[start:i])]++
	}
	return counts
}

func isSpace(b byte) bool { return b == ' ' || b == '\n' || b == '\t' }
