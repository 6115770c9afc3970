// Package plant plants one case of each verdict of the exported-surface
// audit (surface_test.go); cmd/tool is the program that uses it.
package plant

import "fmt"

// Dead is used nowhere: reported.
func Dead() {}

// OnlyTests is used only by plant_test.go: reported.
func OnlyTests() int { return 1 }

// Shape is called through Area only; Perimeter is reported.
type Shape interface {
	Area() int
	Perimeter() int
}

// Square's Area is reached only through Shape: not reported. Its Perimeter
// implements only the uncalled Shape.Perimeter: reported.
type Square struct{ Side int }

func (s Square) Area() int      { return s.Side * s.Side }
func (s Square) Perimeter() int { return 4 * s.Side }

// Color's String is called by fmt alone: not reported.
type Color int

func (c Color) String() string { return fmt.Sprint(int(c)) }

// Config's Verbose is read by the program but set only in a test: reported.
type Config struct {
	Size    int
	Verbose bool
}
