// Package scenarios embeds the committed scenario specs. The faults,
// grayfail, multitenant and autoscale experiments are these specs, so a
// binary runs them without reading the directory at run time.
package scenarios

import "embed"

// FS holds every committed spec, named by its file name ("faults.yaml").
//
//go:embed *.yaml
var FS embed.FS
