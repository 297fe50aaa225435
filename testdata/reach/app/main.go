// Command app uses lib.Used and, wrongly, the test-support package.
package main

import (
	"fixture/internal/difftest"
	"fixture/internal/metrics"
	"fixture/lib"
)

func main() {
	println(lib.Used() + difftest.Helper())
	println(lib.Run(lib.Config{}), lib.Print(lib.Box{}), lib.Pair{1, 2}.Sum())
	if cfg, err := lib.Decode([]byte(`{"size": 4}`)); err == nil {
		println(lib.Run(cfg), lib.RowOf(metrics.Take()).Steps)
	}
}
