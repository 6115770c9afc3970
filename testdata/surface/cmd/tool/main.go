// Command tool is the fixture program that uses package plant.
package main

import (
	"fmt"

	"fixture/internal/plant"
)

func main() {
	var s plant.Shape = plant.Square{Side: 2}
	cfg := plant.Config{Size: s.Area()}
	fmt.Println(cfg.Size, cfg.Verbose, plant.Color(3))
}
