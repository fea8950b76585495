// Command ops5worker is one match process of the multi-process
// runtime: it dials the control process (ops5run -transport tcp),
// receives the program and its bucket partition in the handshake,
// compiles the Rete network the control holds (once per process per
// program: workers that share a process share the network), and serves
// match turns over its slice of the hash-table space until the control
// sends shutdown.
//
// Usage:
//
//	ops5worker -addr 127.0.0.1:7465
//	ops5worker -addr 127.0.0.1:7465 -dial-timeout 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mpcrete/internal/transport"
)

func main() {
	addr := flag.String("addr", "", "control process address (required)")
	dialTimeout := flag.Duration("dial-timeout", 30*time.Second, "how long to keep retrying the control dial (workers typically start before the control is listening)")
	flag.Parse()

	if *addr == "" {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "ops5worker: dialing control at %s\n", *addr)
	if err := transport.Serve(*addr, *dialTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "ops5worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ops5worker: clean shutdown")
}
