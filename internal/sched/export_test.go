package sched

import (
	"reflect"
	"strings"

	"gridqr/internal/mpi"
)

// scheduleCacheEntries counts the compiled-schedule (core.scheduleFor)
// and stage-leveling (core.stagesFor) entries in a world's shared
// cache. The cache is private to mpi.World and has no API for its size,
// so this test-only view reads it by reflection. Call it only while no
// rank runs (after Server.Close).
func scheduleCacheEntries(w *mpi.World) (schedules, stages int) {
	for _, k := range reflect.ValueOf(w).Elem().FieldByName("shared").MapKeys() {
		switch key := k.String(); {
		case strings.HasPrefix(key, "core.sched|"):
			schedules++
		case strings.HasPrefix(key, "core.stages|"):
			stages++
		}
	}
	return schedules, stages
}
