// Package meta is the harness's own corpus: one want the analyzer
// meets, one finding nobody wants, and one want nothing meets.
package meta

func flagMatched() {} // want `flagged flagMatched`

func flagUnexpected() {}

func clean() {} // want `flagged clean`
