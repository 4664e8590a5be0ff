// Command promcheck reads a Prometheus text exposition on stdin and
// exits 1 with the reason if control.ValidateExposition rejects it. CI's
// daemon smoke pipes a live /metrics scrape through it:
//
//	curl -fsS localhost:6060/metrics | go run ./internal/control/promcheck
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/control"
)

func main() {
	data, err := io.ReadAll(os.Stdin)
	if err == nil {
		err = control.ValidateExposition(data)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "promcheck:", err)
		os.Exit(1)
	}
	fmt.Printf("promcheck: %d bytes of valid exposition\n", len(data))
}
