"""The breadth-first 2-colouring of a named graph, kept as the reference for
girth.two_coloring, the colouring of rank lists that girth_of runs."""

from collections import deque


def two_coloring(g):
    """A BFS 2-coloring as a dict vertex -> 0/1, or None if not bipartite."""
    adj = g.adjacency()
    color = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color
