package engine_test

import (
	"fmt"
	"log"
	"os"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
)

// Example runs a two-rule production system through the MRA cycle.
func Example() {
	prog, err := ops5.ParseProgram(`
(p greet
    (person ^name <n>)
    -(greeted ^who <n>)
    -->
    (write hello <n>)
    (make greeted ^who <n>))
`)
	if err != nil {
		log.Fatal(err)
	}
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{Output: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	e.MakeWME("person", "name", "ada")
	fired, err := e.Run(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fired:", fired)
	// Output:
	// hello ada
	// fired: 1
}

// ExampleSession_Step shows single-cycle stepping with conflict-set
// inspection.
func ExampleSession_Step() {
	prog, err := ops5.ParseProgram(`(p note (item ^v <x>) --> (remove 1))`)
	if err != nil {
		log.Fatal(err)
	}
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	e.MakeWME("item", "v", 1)
	e.MakeWME("item", "v", 2)

	in, err := e.Step()
	if err != nil {
		log.Fatal(err)
	}
	// LEX picks the most recent wme first.
	fmt.Println(in.Prod.Name, in.TimeTags)
	// Output: note [2]
}
