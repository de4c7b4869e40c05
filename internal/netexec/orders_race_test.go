//go:build race

package netexec

// Under the race detector TestWorkerEventOrders stops one event short: its
// instrumented run of every five-event sequence takes a minute.
func init() { ordersK = 4 }
