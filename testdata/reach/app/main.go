// Command app uses lib.Used and, wrongly, the test-support package.
package main

import (
	"fixture/internal/difftest"
	"fixture/lib"
)

func main() {
	println(lib.Used() + difftest.Helper())
	println(lib.Run(lib.Config{}), lib.Print(lib.Box{}), lib.Pair{1, 2}.Sum())
}
