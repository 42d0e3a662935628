// Package wallclock holds the one precise wall-clock pause the deployed
// path uses for sub-millisecond waits: the group-commit window of the job
// log and the emulated link delays of the TCP and live transports.
package wallclock

import "time"

// Short is the longest wait spent in Pause rather than on a Go timer. It
// covers every link delay of the shipped topologies at the default scale
// and the job log's commit window, and bounds how long a paused goroutine
// holds its thread and ignores anything that would cut its wait short.
const Short = 2 * time.Millisecond
