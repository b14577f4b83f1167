package serverclient_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"softerror/internal/server"
)

// Example serves a server.Server (an http.Handler) on a loopback port and
// drives its eval, sweep-job and metrics endpoints as a client would.
func Example() {
	srv := server.New(server.Config{Workers: 4})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// 1. An evaluation: the first request simulates, the second is served
	// from the content-addressed cache with the same bytes.
	eval := `{"experiment":"table1","benches":["gzip-graphic","ammp"],"commits":8000}`
	first, hdr1, err := post(hs.URL+"/v1/eval", eval)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	second, hdr2, err := post(hs.URL+"/v1/eval", eval)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("eval #1: X-Cache=%s\n", hdr1)
	fmt.Printf("eval #2: X-Cache=%s, byte-identical=%v\n", hdr2, bytes.Equal(first, second))
	title, _, _ := strings.Cut(string(second), "\n")
	fmt.Printf("eval body: %s\n\n", title)

	// 2. A sweep job, watched live: submit the grid, then follow the event
	// stream until the terminal transition.
	grid := `{"benches":["mcf"],"policies":["baseline","squash-l1","throttle-l1"],"iqsizes":[16,64],"commits":8000}`
	accBody, _, err := post(hs.URL+"/v1/sweep", grid)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var acc struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(accBody, &acc); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("sweep accepted: %d cells\n", acc.Total)
	states, done, total, err := follow(hs.URL + "/v1/jobs/" + acc.ID + "/events")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("job states: %s (%d/%d cells)\n", strings.Join(states, " -> "), done, total)

	// 3. The finished grid as CSV — the same bytes cmd/sweep would write.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + acc.ID + "/csv")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	fmt.Printf("csv: %d rows under %s\n\n", len(lines)-1, lines[0])

	// 4. A few metrics.
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var m map[string]any
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, k := range []string{"cache_hits", "cache_misses", "jobs_done"} {
		fmt.Printf("metrics: %-12s %v\n", k, m[k])
	}

	// 5. Drain before exit: no accepted work is dropped.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("\ndrained cleanly")

	// Output:
	// eval #1: X-Cache=miss
	// eval #2: X-Cache=hit, byte-identical=true
	// eval body: Table 1: impact of squashing on IPC and the IQ's SDC and DUE AVFs
	//
	// sweep accepted: 6 cells
	// job states: queued -> running -> done (6/6 cells)
	// csv: 6 rows under bench,suite,policy,iq_size,out_of_order,ipc,sdc_avf,due_avf,false_due_avf,merit_sdc,squashes
	//
	// metrics: cache_hits   1
	// metrics: cache_misses 1
	// metrics: jobs_done    1
	//
	// drained cleanly
}

// post sends a JSON body and returns the response body and X-Cache header.
func post(url, body string) ([]byte, string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode >= 300 {
		return nil, "", fmt.Errorf("%s: %s: %s", url, resp.Status, b)
	}
	return b, resp.Header.Get("X-Cache"), nil
}

// follow reads a job's event stream to its end and returns the distinct
// states it passed through, in order, and the last event's cell counts.
func follow(url string) (states []string, done, total int, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			State string `json:"state"`
			Done  int    `json:"done"`
			Total int    `json:"total"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, 0, 0, err
		}
		if len(states) == 0 || states[len(states)-1] != ev.State {
			states = append(states, ev.State)
		}
		done, total = ev.Done, ev.Total
	}
	return states, done, total, sc.Err()
}
