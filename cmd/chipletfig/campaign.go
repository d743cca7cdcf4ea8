package main

import (
	"errors"
	"fmt"

	"chipletnet/internal/experiments"
)

// runCampaign runs the tasks one at a time, in order, journaling every
// outcome so a killed campaign resumes where it stopped: a task the
// journal records as done is not re-run and its recorded points are
// reused. Each task's simulations already fan out over the CPUs through
// RunMany, so the tasks themselves need no pool. A task that fails or
// panics is journaled failed and the campaign moves on; its figure is
// just missing that slice. A figure's tasks are contiguous, so emit gets
// each figure's points as soon as its last task finishes (figures with
// no points are skipped). runCampaign returns the joined errors of the
// failed tasks.
func runCampaign(tasks []experiments.Task, j *experiments.Journal, logf func(string, ...any), emit func(figure string, pts []experiments.Point)) error {
	var failed []error
	var pts []experiments.Point
	skipped := 0
	for i, task := range tasks {
		if done, ok := j.Done(task.Key); ok {
			pts = append(pts, done...)
			skipped++
		} else if got, err := runTask(task, j); err != nil {
			logf("%s: %v", task.Key, err)
			failed = append(failed, fmt.Errorf("%s: %w", task.Key, err))
		} else {
			pts = append(pts, got...)
		}
		if last := i+1 == len(tasks) || tasks[i+1].Figure != task.Figure; last && len(pts) > 0 {
			emit(task.Figure, pts)
			pts = nil
		}
	}
	if skipped > 0 {
		logf("resumed: %d of %d tasks already journaled complete", skipped, len(tasks))
	}
	return errors.Join(failed...)
}

// runTask runs one task, translating a panic into an error, and journals
// the outcome with the attempt count carried over from earlier runs.
func runTask(task experiments.Task, j *experiments.Journal) (pts []experiments.Point, err error) {
	e := experiments.JournalEntry{Key: task.Key, Status: experiments.StatusDone, Attempts: 1}
	if prev, ok := j.Lookup(task.Key); ok {
		e.Attempts += prev.Attempts
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		pts, err = task.Run()
	}()
	if err != nil {
		e.Status, e.Error = experiments.StatusFailed, err.Error()
	} else {
		e.Points = pts
	}
	if jerr := j.Record(e); jerr != nil {
		return nil, errors.Join(err, fmt.Errorf("journal: %w", jerr))
	}
	return pts, err
}
