// Command noclint runs the repository's domain-aware static analyzers
// over Go packages: the per-package rules (determinism, exhaustive,
// maporder, routepurity, seedident) and the interprocedural program
// rule (arenaescape), which resolves calls across the whole module at
// once. It must be run from the module root:
//
//	go run ./cmd/noclint ./...
//
// -json emits the findings (suppressed ones included, marked) as a
// JSON array; -waivers lists every //noclint:allow comment with its
// rule and reason without type-checking; -rules prints the suite.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage
// or load errors. See internal/lint for the rules and the
// //noclint:allow suppression syntax.
package main

import (
	"os"

	"nocsim/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
