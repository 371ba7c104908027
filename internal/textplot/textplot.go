// Package textplot renders simple ASCII line and bar charts for the
// command-line tools: good enough to see the shape of an epidemic curve or
// a per-/24 hotspot spike in a terminal or a log file.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted line.
type Series struct {
	Name string
	X, Y []float64
}

// symbols assigns one glyph per series, cycling if needed.
var symbols = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&', '=', '~'}

// Options controls rendering.
type Options struct {
	Width  int  // plot area columns (default 72)
	Height int  // plot area rows (default 20)
	LogY   bool // log10 y-axis (zero/negative values clamp to the axis floor)
}

func (o Options) normalized() Options {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 20
	}
	return o
}

// Render draws the series onto a shared set of axes, with a legend.
func Render(title string, series []Series, opts Options) string {
	opts = opts.normalized()
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	xMin, xMax, yMin, yMax, any := bounds(series, opts.LogY)
	if !any {
		b.WriteString("(no data)\n")
		return b.String()
	}
	//lint:ignore float-eq equal bounds mean a single distinct x, whose zero span would divide by zero in scaling; a near-equal real range must keep its span
	if xMax == xMin {
		xMax = xMin + 1
	}
	//lint:ignore float-eq equal bounds mean a single distinct y, whose zero span would divide by zero in scaling; a near-equal real range must keep its span
	if yMax == yMin {
		yMax = yMin + 1
	}
	grid := make([][]byte, opts.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opts.Width))
	}
	for si, s := range series {
		sym := symbols[si%len(symbols)]
		for i := range s.X {
			y := transformY(s.Y[i], opts.LogY, yMin)
			col := int(float64(opts.Width-1) * (s.X[i] - xMin) / (xMax - xMin))
			row := int(float64(opts.Height-1) * (y - yMin) / (yMax - yMin))
			if col < 0 || col >= opts.Width || row < 0 || row >= opts.Height {
				continue
			}
			grid[opts.Height-1-row][col] = sym
		}
	}
	yLabel := func(v float64) string {
		if opts.LogY {
			return fmt.Sprintf("%.3g", math.Pow(10, v))
		}
		return fmt.Sprintf("%.3g", v)
	}
	topLabel, botLabel := yLabel(yMax), yLabel(yMin)
	labelWidth := len(topLabel)
	if len(botLabel) > labelWidth {
		labelWidth = len(botLabel)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", labelWidth)
		if i == 0 {
			label = fmt.Sprintf("%*s", labelWidth, topLabel)
		}
		if i == opts.Height-1 {
			label = fmt.Sprintf("%*s", labelWidth, botLabel)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelWidth), strings.Repeat("-", opts.Width))
	fmt.Fprintf(&b, "%s  %-*.6g%*.6g\n", strings.Repeat(" ", labelWidth), opts.Width/2, xMin, opts.Width-opts.Width/2, xMax)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", symbols[si%len(symbols)], s.Name)
	}
	return b.String()
}

func transformY(v float64, logY bool, floor float64) float64 {
	if !logY {
		return v
	}
	if v <= 0 {
		return floor
	}
	return math.Log10(v)
}

func bounds(series []Series, logY bool) (xMin, xMax, yMin, yMax float64, any bool) {
	xMin, yMin = math.Inf(1), math.Inf(1)
	xMax, yMax = math.Inf(-1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			y := s.Y[i]
			if logY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			any = true
			xMin = math.Min(xMin, s.X[i])
			xMax = math.Max(xMax, s.X[i])
			yMin = math.Min(yMin, y)
			yMax = math.Max(yMax, y)
		}
	}
	if logY && any {
		// Give zero-valued points a visible floor one decade down.
		yMin--
	}
	return xMin, xMax, yMin, yMax, any
}

// Bars renders a horizontal bar chart of labeled values.
func Bars(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	if len(labels) != len(values) || len(labels) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	for i, v := range values {
		n := int(float64(width) * v / maxV)
		if v > 0 && n == 0 {
			n = 1
		}
		fmt.Fprintf(&b, "%-*s |%s %.6g\n", maxL, labels[i], strings.Repeat("█", n), v)
	}
	return b.String()
}
