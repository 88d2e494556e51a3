package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// SVGOptions style an SVG chart. The zero value is usable.
type SVGOptions struct {
	// Title is drawn across the top.
	Title string
	// YLabel annotates the vertical axis.
	YLabel string
}

// chart size, polyline stroke (steel blue) and margins.
const (
	svgWidth     = 720
	svgHeight    = 360
	svgColor     = "#4682b4"
	marginLeft   = 70
	marginRight  = 20
	marginTop    = 36
	marginBottom = 44
)

// SVGLine renders a time series as a standalone SVG line chart with
// axes and ticks — enough to regenerate the paper's figures as images
// with no dependencies. The output is deterministic.
func SVGLine(w io.Writer, points []SeriesPoint, opts SVGOptions) error {
	if len(points) == 0 {
		return fmt.Errorf("report: empty series")
	}

	minX, maxX := points[0].Date, points[len(points)-1].Date
	minY, maxY := points[0].Value, points[0].Value
	for _, p := range points {
		minY = math.Min(minY, p.Value)
		maxY = math.Max(maxY, p.Value)
	}
	if maxY == minY {
		maxY = minY + 1
	}
	spanX := float64(maxX.Sub(minX))
	if spanX == 0 {
		spanX = 1
	}

	plotW := float64(svgWidth - marginLeft - marginRight)
	plotH := float64(svgHeight - marginTop - marginBottom)
	xOf := func(t time.Time) float64 {
		return float64(marginLeft) + plotW*float64(t.Sub(minX))/spanX
	}
	yOf := func(v float64) float64 {
		return float64(marginTop) + plotH*(1-(v-minY)/(maxY-minY))
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		svgWidth, svgHeight, svgWidth, svgHeight)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if opts.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="22" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
			marginLeft, escapeXML(opts.Title))
	}

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`+"\n",
		marginLeft, svgHeight-marginBottom, svgWidth-marginRight, svgHeight-marginBottom)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`+"\n",
		marginLeft, marginTop, marginLeft, svgHeight-marginBottom)

	// Y ticks: 5 evenly spaced.
	for i := 0; i <= 4; i++ {
		v := minY + (maxY-minY)*float64(i)/4
		y := yOf(v)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ccc" stroke-dasharray="3,3"/>`+"\n",
			marginLeft, y, svgWidth-marginRight, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginLeft-6, y+4, compactNumber(v))
	}
	// X ticks: 6 dates.
	for i := 0; i <= 5; i++ {
		t := minX.Add(time.Duration(float64(maxX.Sub(minX)) * float64(i) / 5))
		x := xOf(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#444"/>`+"\n",
			x, svgHeight-marginBottom, x, svgHeight-marginBottom+5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, svgHeight-marginBottom+18, t.Format("2006-01"))
	}
	if opts.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%d" font-family="sans-serif" font-size="12" transform="rotate(-90 14 %d)" text-anchor="middle">%s</text>`+"\n",
			(marginTop+svgHeight-marginBottom)/2, (marginTop+svgHeight-marginBottom)/2, escapeXML(opts.YLabel))
	}

	// The series polyline (downsampled to keep files small).
	ds := Downsample(points, 400)
	var poly strings.Builder
	for i, p := range ds {
		if i > 0 {
			poly.WriteByte(' ')
		}
		fmt.Fprintf(&poly, "%.1f,%.1f", xOf(p.Date), yOf(p.Value))
	}
	fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n",
		poly.String(), svgColor)
	b.WriteString("</svg>\n")

	_, err := io.WriteString(w, b.String())
	return err
}

// compactNumber renders axis labels like 9.4k or 1.2M.
func compactNumber(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// escapeXML escapes the characters meaningful in SVG text nodes.
func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
