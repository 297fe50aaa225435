// Command app uses lib.Used and, wrongly, the test-support package.
package main

import (
	"fixture/internal/difftest"
	"fixture/lib"
)

func main() { println(lib.Used() + difftest.Helper()) }
